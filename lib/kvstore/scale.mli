(** Multi-core scale-out measurement (ROADMAP item 1): throughput and
    tail latency versus core count, with batched do_pkey_sync IPIs
    measured against the per-update broadcast on the identical workload.

    Each point builds a fresh sharded server ([shards = workers], one
    worker per core), prefills it, and drives the zipfian closed-loop
    workload twice from the same seed: once with IPI batching (and the
    server's batched mprotect pairs), once with the per-update reference.
    The IPIs of the measured window are counted from [Sched.ipis_sent]
    (each is one [Ipi] trace event; no tracer is touched), the
    cross-layer auditor runs against the live libmpk instance after each
    run, and the point keeps both runs' results and the batched run's
    per-core IPI counters. *)

type point = {
  cores : int;
  batched : Loadgen.result;
  per_update : Loadgen.result;
  ipi_events_batched : int;
  ipi_events_per_update : int;
  per_core_ipis : (int * int * int) list;  (** core, sent, received (batched run) *)
  audit_violations : string list;
  slabs_ok : bool;
}

(** One arrival rate of the open-loop sweep. *)
type open_point = {
  op_rate : int;  (** offered connections per second *)
  op_result : Loadgen.result;
  op_audit_violations : string list;
  op_slabs_ok : bool;
}

(** Open-loop latency curve at a fixed core count: offered load is
    decoupled from service capacity, so past saturation connections
    drop and tail latency leaves the flat region — the knee. *)
type open_sweep = {
  os_cores : int;
  os_duration_s : float;
  os_points : open_point list;  (** ascending rate *)
  os_knee : int option;
      (** first rate whose p99 exceeds 2x the lowest rate's, or that
          drops > 1% of offered connections; [None] = knee beyond the
          swept range *)
}

type report = {
  mode : Server.mode;
  closed_conns : int;
  seed : int64;
  smoke : bool;
  points : point list;
  open_loop : open_sweep option;
}

(** [run ~mode ~cores ()] — one point per entry of [cores] (each entry is
    a worker/shard count). [smoke] shrinks the store and the connection
    count to CI size. Deterministic for a given [seed]. When
    [open_rates] is non-empty, an open-loop sweep over those arrival
    rates (sorted and deduplicated) runs at the largest core count and
    lands in [report.open_loop]. Raises [Invalid_argument] on a core
    count below 1 or a rate below {!min_open_rate}. *)
val run :
  mode:Server.mode ->
  cores:int list ->
  ?open_rates:int list ->
  ?smoke:bool ->
  ?seed:int64 ->
  unit ->
  report

(** The smallest open-loop rate whose arrival window (0.02 s for
    [smoke], else 0.1 s) offers a connection: 50 or 10 conns/s. *)
val min_open_rate : smoke:bool -> int

(** The report as [mpkctl scale] writes it: every point, then [valid]
    (no {!problems}). *)
val to_json : report -> Mpk_trace.Json.t

(** One line per core count (batched and per-update throughput, p50/p99
    latency, [Ipi] event counts), then one per open-loop rate and the
    knee when the sweep ran. *)
val render : report -> string

(** Human-readable validation failures: auditor violations, slab
    invariant breaks, a batched run that did not send strictly fewer
    IPIs than its per-update twin, an empty run, a p99 below its p50,
    or an open-loop rate served above its offered load (rate ×
    {!Loadgen.reqs_per_conn} requests per second). Empty means the
    report is good. *)
val problems : report -> string list
