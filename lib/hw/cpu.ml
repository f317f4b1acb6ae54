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
}

let create ?(costs = Costs.default) ~id () =
  { id; costs; tlb = Tlb.create (); pkru = Pkru.init; cycles = { now = 0.0 }; refill_left = 0 }

let id t = t.id
let costs t = t.costs
let tlb t = t.tlb
let cycles t = t.cycles.now

(* Fault injection: a charged event is the finest-grained point at which
   the scheduler may preempt the running task (the kernel installs the
   actual action via [Mpk_faultinj.set_preempt_action]). *)
let fp_preempt = "sched.preempt"
let () = Mpk_faultinj.declare fp_preempt

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

let set_plant_slowdown p =
  (match p with
  | Some (_, extra) when not (Float.is_finite extra) || extra < 0.0 ->
      invalid_arg "set_plant_slowdown: extra cycles must be finite and >= 0"
  | Some _ | None -> ());
  planted := p

let charge ?label t c =
  let c =
    match !planted, label with
    | Some (pl, extra), Some l when String.equal l pl -> c +. extra
    | _ -> c
  in
  t.cycles.now <- t.cycles.now +. c;
  total_ever.now <- total_ever.now +. c;
  if Mpk_trace.Prof.on () then Mpk_trace.Prof.charge ?label c;
  if Mpk_faultinj.fire fp_preempt then Mpk_faultinj.preempt t.id

let measure t f =
  let before = cycles t in
  let result = f () in
  result, cycles t -. before

(* Tracer shims: the core's cycle counter is the event clock. *)
let emit t ev = Mpk_trace.Tracer.emit ~core:t.id ~ts:(cycles t) ev

(* With tracing and profiling both off a span is just [f ()]: the check
   comes first so that the clock closure is only built when a span will
   read it. *)
let span t name f =
  if Mpk_trace.Tracer.on () || Mpk_trace.Prof.on () then
    Mpk_trace.Tracer.with_span ~core:t.id ~clock:(fun () -> cycles t) name f
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
