(** Process-wide metrics registry.

    Counters and gauges, registered by name with get-or-create semantics
    and exported as JSON. Names may carry a label suffix, e.g.
    [trace_events_total{kind="wrpkru"}]. *)

type counter
type gauge

val counter : ?help:string -> string -> counter
(** Get or create. Raises [Invalid_argument] if [name] is already
    registered with a different metric type. *)

val gauge : ?help:string -> string -> gauge

val inc : ?by:float -> counter -> unit
val set : gauge -> float -> unit

val reset : unit -> unit
(** Drop every registered metric. Handles obtained before the reset are
    detached: updating them still works but they no longer export. *)

val generation : unit -> int
(** Bumped on every {!reset} — callers caching metric handles compare
    generations to notice theirs went stale and re-register. *)

val export_json : unit -> Json.t
(** Array of metric objects, in registration order: [name], [type],
    [help] (when given) and [value]. *)
