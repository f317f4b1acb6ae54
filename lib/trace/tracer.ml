(* Per-core ring-buffer event tracer.

   Runtime-off by default: [emit] checks one mutable bool and returns
   immediately when tracing is off, and [Cpu.span] skips [with_span]
   when tracing and profiling are both off, so instrumented hot paths
   (TLB lookups, WRPKRU) cost a branch. When on,
   events go to a bounded ring per core (newest events win), to the
   metrics registry (one counter per event kind), and to any registered
   sinks. *)

let enabled = ref false
let default_capacity = ref 8192

let rings : (int, Event.t Ring.t) Hashtbl.t = Hashtbl.create 8
let ring_order : int list ref = ref []

let seq = ref 0
let last = ref 0.0  (* max cycle timestamp seen on any core *)

(* Which task is resident on each core; maintained by the scheduler via
   [set_task_on_core] regardless of enable state, so enabling tracing
   mid-run still stamps correct task ids. *)
let task_on_core : (int, int) Hashtbl.t = Hashtbl.create 8

type sink = Event.t -> unit

let sinks : sink list ref = ref []

let span_counter = ref 0
let span_stack : int list ref = ref []

let on () = !enabled

let enable ?capacity () =
  (match capacity with
  | Some c ->
      if c < 1 then invalid_arg "Tracer.enable: capacity must be positive";
      default_capacity := c
  | None -> ());
  enabled := true

let disable () = enabled := false

let clear () =
  Hashtbl.reset rings;
  ring_order := [];
  seq := 0;
  last := 0.0;
  span_counter := 0;
  span_stack := []

let add_sink s = sinks := s :: !sinks
let clear_sinks () = sinks := []

let set_task_on_core ~core ~task = Hashtbl.replace task_on_core core task

let ring_for core =
  match Hashtbl.find_opt rings core with
  | Some r -> r
  | None ->
      let r = Ring.create !default_capacity in
      Hashtbl.replace rings core r;
      ring_order := core :: !ring_order;
      r

(* One counter per event kind, e.g. trace_events_total{kind="wrpkru"};
   memoized so the enabled-path cost is one hash lookup. The memo is
   invalidated when [Metrics.reset] bumps the registry generation, or
   cached handles would keep counting into detached refs. *)
let kind_counters : (string, Metrics.counter) Hashtbl.t = Hashtbl.create 32
let kind_counters_gen = ref (Metrics.generation ())

let counter_for kind =
  let gen = Metrics.generation () in
  if gen <> !kind_counters_gen then begin
    Hashtbl.reset kind_counters;
    kind_counters_gen := gen
  end;
  match Hashtbl.find_opt kind_counters kind with
  | Some c -> c
  | None ->
      let c =
        Metrics.counter
          ~help:"Trace events emitted, by event kind"
          (Printf.sprintf "trace_events_total{kind=%S}" kind)
      in
      Hashtbl.replace kind_counters kind c;
      c

let emit ~core ~ts ev =
  if !enabled then begin
    let task =
      match Hashtbl.find_opt task_on_core core with Some t -> t | None -> -1
    in
    let span = match !span_stack with s :: _ -> s | [] -> 0 in
    let e = { Event.seq = !seq; ts; core; task; span; ev } in
    incr seq;
    if ts > !last then last := ts;
    Ring.push (ring_for core) e;
    Metrics.inc (counter_for (Event.kind ev));
    List.iter (fun s -> s e) !sinks
  end

(* For emitters with no core context (fault injection): stamp with the
   latest cycle time observed anywhere. *)
let emit_floating ev = emit ~core:(-1) ~ts:!last ev

(* Callers check [on () || Prof.on ()] first and run [f] bare when both
   are off, so that an unobserved span builds nothing. *)
let with_span ~core ~clock name f =
  let tracing = !enabled in
  let profiling = Prof.on () in
  incr span_counter;
  span_stack := !span_counter :: !span_stack;
  if tracing then emit ~core ~ts:(clock ()) (Event.Span_begin { name });
  if profiling then Prof.enter name;
  Fun.protect
    ~finally:(fun () ->
      if profiling then Prof.exit_ ();
      if tracing then emit ~core ~ts:(clock ()) (Event.Span_end { name });
      match !span_stack with _ :: tl -> span_stack := tl | [] -> ())
    f

(* ---------- queries ---------- *)

let emitted () = !seq
let last_ts () = !last

let events () =
  List.concat_map
    (fun core ->
      match Hashtbl.find_opt rings core with
      | Some r -> Ring.to_list r
      | None -> [])
    !ring_order
  |> List.sort (fun (a : Event.t) b -> compare a.seq b.seq)

let recent n =
  let all = events () in
  let len = List.length all in
  let rec drop k l =
    if k <= 0 then l else match l with [] -> [] | _ :: tl -> drop (k - 1) tl
  in
  drop (len - n) all

let retained () = List.length (events ())

let cores () = List.sort compare !ring_order
