(** Per-core ring-buffer event tracer.

    Compile-in, runtime-off: events are kept only inside {!record}.
    With no recording open, {!emit} returns after one match, and spans
    are opened only when tracing or profiling is on — the off cost on
    hot paths is a branch, verified by the overhead-freedom test. An
    open recording stamps each event (seq, cycle ts, core, resident
    task, innermost span id), pushes it to that core's bounded ring of
    8,192 events (oldest events are dropped first), and counts it in the
    metrics registry per event kind. *)

val on : unit -> bool
(** A recording is open. Allocates nothing. *)

type capture
(** The events one {!record} caught. *)

val record : (unit -> 'a) -> 'a * capture
(** [record f] runs [f] in a fresh recording, open exactly while [f]
    runs (it closes when [f] raises, too), and returns [f]'s result with
    the recording. Inside an open recording, [f] runs in that one, which
    is then the capture: [f]'s events join the ones before. *)

val emitted : capture -> int
(** Events emitted, including ones already dropped from the rings. *)

val events : capture -> Event.t list
(** The events still in the rings, in emission (seq) order. *)

val cores : capture -> int list
(** Core ids (including -1 for floating emitters) that emitted, sorted. *)

val recent : capture -> int -> Event.t list
(** The newest [n] of {!events}, oldest first. *)

val current : unit -> capture option
(** The open recording, for a reader that looks at it mid-run. *)

val emit : core:int -> task:int -> ts:float -> Event.ev -> unit
(** [emit ~core ~task ~ts ev] records [ev] as emitted on [core] while
    [task] is resident there ([-1] for none); the emitting core's own
    record of its task supplies it ([Cpu.emit]), since core ids repeat
    across simulated machines. *)

val emit_floating : Event.ev -> unit
(** Emit without core context (fault-injection firings): [core = -1],
    timestamped with the latest cycle time the recording has seen. *)

val with_span : core:int -> task:int -> clock:(unit -> float) -> string -> (unit -> 'a) -> 'a
(** [with_span ~core ~task ~clock name f] wraps [f] in a span: allocates
    a span id, emits [Span_begin]/[Span_end] stamped with [task] and via
    [clock] (the core's cycle counter, read at entry and exit), and opens a
    {!Prof} attribution scope when profiling is on. Exception-safe.
    Callers ([Cpu.span], and the libmpk and syscall entry points
    through [Cpu.observed]) run the body bare instead when neither
    {!on} nor {!Prof.on} holds: the span is then unobserved, and
    skipping it builds nothing, neither [f] nor [clock]. *)

(** {2 Controls}

    Open, close and reset one long-lived recording, for the host-cost
    benchmark's traced phase; do not mix them with {!record}. [clear]
    drops its events but keeps its sinks, which run on every event it
    keeps. *)

val enable : unit -> unit
val disable : unit -> unit
val clear : unit -> unit

type sink = Event.t -> unit

val add_sink : sink -> unit
val clear_sinks : unit -> unit
