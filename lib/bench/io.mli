(** One entry point for every JSON artifact `mpkctl` writes or reads
    back: serialize with the strict printer, re-parse the exact bytes,
    schema-check the result, and only then touch the filesystem — so a
    malformed export can never land on disk, and a stale or truncated
    baseline can never silently gate a build. *)

type kind =
  | Bench  (** [BENCH_<id>.json] — multi-trial report with per-seed samples *)
  | Bench_diff  (** [BENCH_diff.json] — `bench diff` verdict report *)
  | Profile  (** [PROFILE_<id>.json] — single-run attribution export *)
  | Scale_report  (** [SCALE_report.json] — `mpkctl scale` output *)
  | Perfetto  (** [TRACE_*.json] — Chrome trace_event stream *)

val write : path:string -> kind -> Mpk_trace.Json.t -> (unit, string) result
(** Serialize (indent 1), strict re-parse, schema-check, then write. The
    schema check wants the kind's required members present with the
    right shapes (non-empty where emptiness would make the artifact
    useless); a [Bench] report must decode through {!Runner.of_json}. *)

val write_string : path:string -> kind -> string -> (unit, string) result
(** Same contract for content produced by another serializer (the
    Perfetto exporter renders its own string). *)

val read_baseline : id:string -> path:string -> (Runner.report, string) result
(** The committed baseline `bench diff` and `profile diff` compare [id]
    with: the file at [path], parsed, decoded once as a [Bench] report
    and rejected unless it records experiment [id]. Every error names
    [path]. *)
