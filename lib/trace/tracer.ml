(* Per-core ring-buffer event tracer.

   Events are kept only while a recording is open: [emit] matches the
   open recording and returns at once when there is none, and
   [Cpu.span] skips [with_span] when tracing and profiling are both off,
   so instrumented hot paths (TLB lookups, WRPKRU) cost a branch. An
   open recording stamps each event and pushes it to a bounded ring per
   core (newest events win), to the metrics registry (one counter per
   event kind), and to the recording's sinks. *)

let capacity = 8192

type sink = Event.t -> unit

(* A recording, open or closed. *)
type capture = {
  rings : (int, Event.t Ring.t) Hashtbl.t;
  mutable seq : int;  (* events emitted so far *)
  mutable last : float;  (* max cycle timestamp seen on any core *)
  mutable spans : int;  (* span ids handed out *)
  mutable span_stack : int list;
  mutable sinks : sink list;
}

let fresh () =
  {
    rings = Hashtbl.create 8;
    seq = 0;
    last = 0.0;
    spans = 0;
    span_stack = [];
    sinks = [];
  }

let opened : capture option ref = ref None

(* Which task is resident on each core; maintained by the scheduler via
   [set_task_on_core] whether or not a recording is open, so a recording
   opened mid-run still stamps correct task ids. *)
let task_on_core : (int, int) Hashtbl.t = Hashtbl.create 8

let on () = match !opened with Some _ -> true | None -> false

let set_task_on_core ~core ~task = Hashtbl.replace task_on_core core task

let ring_for r core =
  match Hashtbl.find_opt r.rings core with
  | Some ring -> ring
  | None ->
      let ring = Ring.create capacity in
      Hashtbl.replace r.rings core ring;
      ring

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

let push r ~core ~ts ev =
  let task =
    match Hashtbl.find_opt task_on_core core with Some t -> t | None -> -1
  in
  let span = match r.span_stack with s :: _ -> s | [] -> 0 in
  let e = { Event.seq = r.seq; ts; core; task; span; ev } in
  r.seq <- r.seq + 1;
  if ts > r.last then r.last <- ts;
  Ring.push (ring_for r core) e;
  Metrics.inc (counter_for (Event.kind ev));
  List.iter (fun s -> s e) r.sinks

let emit ~core ~ts ev = match !opened with None -> () | Some r -> push r ~core ~ts ev

(* For emitters with no core context (fault injection): stamp with the
   latest cycle time observed anywhere. *)
let emit_floating ev =
  match !opened with None -> () | Some r -> push r ~core:(-1) ~ts:r.last ev

(* Callers check [on () || Prof.on ()] first and run [f] bare when both
   are off, so that an unobserved span builds nothing. A span cannot
   outlive the recordings open at its start, as both are scoped. *)
let with_span ~core ~clock name f =
  let profiling = Prof.on () in
  if profiling then Prof.enter name;
  let exit_prof () = if profiling then Prof.exit_ () in
  match !opened with
  | None -> Fun.protect ~finally:exit_prof f
  | Some r ->
      r.spans <- r.spans + 1;
      r.span_stack <- r.spans :: r.span_stack;
      push r ~core ~ts:(clock ()) (Event.Span_begin { name });
      Fun.protect
        ~finally:(fun () ->
          exit_prof ();
          push r ~core ~ts:(clock ()) (Event.Span_end { name });
          match r.span_stack with _ :: tl -> r.span_stack <- tl | [] -> ())
        f

(* A fresh recording is the open one for [f]'s nested [record]. *)
let rec record f =
  match !opened with
  | Some r -> (f (), r)
  | None ->
      opened := Some (fresh ());
      Fun.protect ~finally:(fun () -> opened := None) (fun () -> record f)

let emitted c = c.seq

let events c =
  Hashtbl.fold (fun _ ring acc -> List.rev_append (Ring.to_list ring) acc) c.rings []
  |> List.sort (fun (a : Event.t) b -> Int.compare a.seq b.seq)

let cores c = List.sort Int.compare (Hashtbl.fold (fun core _ acc -> core :: acc) c.rings [])

let recent c n =
  let all = events c in
  let len = List.length all in
  List.filteri (fun i _ -> i >= len - n) all

let current () = !opened

(* The recording the controls steer. *)
let controlled = fresh ()

let enable () = opened := Some controlled
let disable () = opened := None

let clear () =
  Hashtbl.reset controlled.rings;
  controlled.seq <- 0;
  controlled.last <- 0.0;
  controlled.spans <- 0;
  controlled.span_stack <- []

let add_sink s = controlled.sinks <- s :: controlled.sinks
let clear_sinks () = controlled.sinks <- []
