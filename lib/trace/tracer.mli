(** Per-core ring-buffer event tracer.

    Compile-in, runtime-off: {!emit} bails on one mutable-bool check
    when tracing is disabled, and spans are opened only when tracing or
    profiling is on — the disabled cost on hot paths is a branch,
    verified by the overhead-freedom test. When
    enabled, each event is stamped (seq, cycle ts, core, resident task,
    innermost span id), pushed to that core's bounded ring (oldest
    events are dropped first), counted in the metrics registry per
    event kind, and fanned out to registered sinks. *)

val on : unit -> bool

val enable : ?capacity:int -> unit -> unit
(** Turn tracing on. [capacity] (default 8192) sets the per-core ring
    size used for rings created from now on; raises [Invalid_argument]
    when not positive. *)

val disable : unit -> unit

val clear : unit -> unit
(** Drop all buffered events and reset seq/span state. Does not touch
    enable state, sinks, or the core→task registry. *)

type sink = Event.t -> unit

val add_sink : sink -> unit
(** Sinks run synchronously on every emitted event while tracing is
    enabled (after ring insertion). *)

val clear_sinks : unit -> unit

val set_task_on_core : core:int -> task:int -> unit
(** Scheduler hook: records which task is resident on [core] so events
    can be task-stamped. Maintained even while tracing is disabled, so
    enabling mid-run yields correct attribution. *)

val emit : core:int -> ts:float -> Event.ev -> unit

val emit_floating : Event.ev -> unit
(** Emit without core context (fault-injection firings): [core = -1],
    timestamped with {!last_ts}. *)

val with_span : core:int -> clock:(unit -> float) -> string -> (unit -> 'a) -> 'a
(** [with_span ~core ~clock name f] wraps [f] in a span: allocates a
    span id, emits [Span_begin]/[Span_end] stamped via [clock] (the
    core's cycle counter, read at entry and exit), and opens a
    {!Prof} attribution scope when profiling is enabled. Exception-safe.
    Keep enable states fixed for the duration of a span. Callers run [f]
    bare instead when neither {!on} nor {!Prof.on} holds: the span is
    then unobserved, and skipping it builds nothing. *)

val emitted : unit -> int
(** Total events emitted since {!clear}, including ones already
    dropped from rings. *)

val retained : unit -> int
val last_ts : unit -> float

val events : unit -> Event.t list
(** All retained events across cores, in emission (seq) order. *)

val recent : int -> Event.t list
(** Newest [n] retained events, oldest-first — the "black box". *)

val cores : unit -> int list
(** Core ids (including -1 for floating emitters) that have emitted. *)
