(** Process-wide metrics registry.

    Counters, gauges, and fixed-bucket histograms (built on
    {!Mpk_util.Stats.Histogram}), registered by name with get-or-create
    semantics and exported as JSON. Names may carry a label suffix, e.g.
    [trace_events_total{kind="wrpkru"}]. *)

type counter
type gauge

val counter : ?help:string -> string -> counter
(** Get or create. Raises [Invalid_argument] if [name] is already
    registered with a different metric type. *)

val gauge : ?help:string -> string -> gauge

val histogram :
  ?help:string -> ?lo:float -> ?growth:float -> ?buckets:int -> string ->
  Mpk_util.Stats.Histogram.h
(** Bucket-layout options are only honoured on first registration. *)

val inc : ?by:float -> counter -> unit
val set : gauge -> float -> unit
val observe : Mpk_util.Stats.Histogram.h -> float -> unit

val reset : unit -> unit
(** Drop every registered metric. Handles obtained before the reset are
    detached: updating them still works but they no longer export. *)

val generation : unit -> int
(** Bumped on every {!reset} — callers caching metric handles compare
    generations to notice theirs went stale and re-register. *)

val is_empty : unit -> bool

val registered : unit -> string list
(** Registered names in registration order (export order). *)

val export_json : unit -> Json.t
(** Array of metric objects; histograms include bucket arrays and
    p50/p95/p99 (null when empty). *)
