(* A cycle counter lives in an all-float record, whose field is stored
   unboxed: advancing it allocates nothing, where a float field of a
   mixed record would box every new value. *)
type clock = { mutable now : float }

type t = {
  id : int;
  costs : Costs.t;
  tlb : Tlb.t;
  mutable pkru : Pkru.t;
  cycles : clock;
  mutable refill_left : int;  (* instructions still paying the drain *)
  mutable preempt : int -> unit;  (* what an injected preemption does here *)
  mutable task : int;  (* resident task's id, -1 when idle: trace events' stamp *)
}

let create ?(costs = Costs.default) ~id () =
  {
    id;
    costs;
    tlb = Tlb.create ();
    pkru = Pkru.init;
    cycles = { now = 0.0 };
    refill_left = 0;
    preempt = ignore;
    task = -1;
  }

let id t = t.id
let costs t = t.costs
let tlb t = t.tlb
let cycles t = t.cycles.now
let clock t = t.cycles

(* Fault injection: a charged event is the finest-grained point at which
   the scheduler may preempt the running task; whoever runs the core (the
   kernel, or a torture scheduler) installs the action with
   [set_preempt]. *)
let fp_preempt = "sched.preempt"
let () = Mpk_faultinj.declare fp_preempt
let set_preempt t f = t.preempt <- f
let preempt_hook t = t.preempt

(* Cycles ever charged on any core, for the attribution exactness check:
   this accumulator and a profile's [Prof.total] perform the same float
   additions in the same order when both start together, so `mpkctl
   profile` can require bit-identical totals. *)
let total_ever = { now = 0.0 }

let total_charged () = total_ever.now
let reset_total_charged () = total_ever.now <- 0.0

(* Planted slowdown: extra cycles injected on one charge label, used by
   the bench gate's self-test (`mpkctl bench diff --plant`) to prove a
   real regression would be caught and correctly attributed. The extra
   cycles flow through the normal accounting below — core clock,
   [total_ever], profiler — so the attribution exactness check still
   holds under a plant. *)
let planted : (string * float) option ref = ref None

let with_plant_slowdown p f =
  (match p with
  | Some (_, extra) when not (Float.is_finite extra) || extra < 0.0 ->
      invalid_arg "with_plant_slowdown: extra cycles must be finite and >= 0"
  | Some _ | None -> ());
  let outer = !planted in
  planted := p;
  Fun.protect ~finally:(fun () -> planted := outer) f

let[@inline] advance t c =
  t.cycles.now <- t.cycles.now +. c;
  total_ever.now <- total_ever.now +. c

let[@inline] preemption_point t = if Mpk_faultinj.fire fp_preempt then t.preempt t.id

let charge ?label t c =
  let c =
    match !planted, label with
    | Some (pl, extra), Some l when String.equal l pl -> c +. extra
    | _ -> c
  in
  advance t c;
  if Mpk_trace.Prof.on () then Mpk_trace.Prof.charge ?label c;
  preemption_point t

(* [charge ~label t c] for a [c] computed by the caller below: inlined
   there, the computed float is never boxed. *)
let[@inline] charge_computed t label c =
  let c =
    match !planted with Some (pl, extra) when String.equal label pl -> c +. extra | _ -> c
  in
  advance t c;
  if Mpk_trace.Prof.on () then Mpk_trace.Prof.charge ~label c;
  preemption_point t

let charge_sum t ~label a b = charge_computed t label (a +. b)
let charge_per t ~label n c = charge_computed t label (float_of_int n *. c)

let charge_per2 t ~label n a m b =
  charge_computed t label ((float_of_int n *. a) +. (float_of_int m *. b))

let measure t f =
  let before = cycles t in
  let result = f () in
  result, cycles t -. before

let set_task t id = t.task <- id

(* Tracer shims: the core's cycle counter is the event clock, and its
   resident task the events' task. *)
let emit t ev = Mpk_trace.Tracer.emit ~core:t.id ~task:t.task ~ts:(cycles t) ev

let observed () = Mpk_trace.Tracer.on () || Mpk_trace.Prof.on ()

(* With tracing and profiling both off a span is just [f ()]: the check
   comes first so that the clock closure is only built when a span will
   read it. *)
let span t name f =
  if observed () then
    Mpk_trace.Tracer.with_span ~core:t.id ~task:t.task ~clock:(fun () -> cycles t) name f
  else f ()

let pkru t = t.pkru
let set_pkru_direct t v = t.pkru <- v

let wrpkru t v =
  t.pkru <- v;
  charge ~label:"wrpkru" t t.costs.wrpkru;
  t.refill_left <- t.costs.pipeline_refill_window;
  if Mpk_trace.Tracer.on () then
    emit t (Mpk_trace.Event.Wrpkru { pkru = Pkru.to_int v })

let rdpkru t =
  charge ~label:"rdpkru" t t.costs.rdpkru;
  if Mpk_trace.Tracer.on () then
    emit t (Mpk_trace.Event.Rdpkru { pkru = Pkru.to_int t.pkru });
  t.pkru

let exec_adds t n =
  let serial = min n t.refill_left in
  t.refill_left <- t.refill_left - serial;
  let pipelined = n - serial in
  charge ~label:"pipeline_refill" t
    ((float_of_int serial *. (t.costs.add_pipelined +. t.costs.wrpkru_drain))
    +. (float_of_int pipelined *. t.costs.add_pipelined))

let exec_reg_move t = charge ~label:"reg_move" t t.costs.reg_move
