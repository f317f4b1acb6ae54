(** Connection-oriented load generator for the kvstore.

    Each connection carries 10 requests, 90% of them gets, and time runs
    at 2.4 GHz. An open loop offers connections at a fixed rate to the
    least-loaded worker and drops any that would wait longer than
    [max_delay_s] in the accept queue; a closed loop issues them
    back-to-back. Paper Fig 14 (twemperf) is the open loop with uniform
    keys ([theta = 0.]) and no churn cost ([conn_setup_cycles = 0.]);
    `mpkctl scale` drives both loops with the zipfian defaults. *)

(** Requests per connection (10). *)
val reqs_per_conn : int

type loop =
  | Open_loop of int
      (** offered connections per second; arrivals waiting longer than
          [max_delay_s] in the accept queue are dropped *)
  | Closed_loop of int
      (** total connections issued back-to-back with zero think time —
          the saturation (capacity) measurement *)

type result = {
  loop : loop;
  offered_conns : int;
  handled_conns : int;
  dropped_conns : int;
  requests : int;
  gets : int;
  sets : int;
  data_bytes : int;
  duration_s : float;
      (** makespan across worker cores; an open loop's is at least its
          [duration_s] arrival window *)
  throughput_rps : float;
  p50_cycles : float;
  p95_cycles : float;
  p99_cycles : float;
  ipis : int;  (** IPIs sent during the run (sync kicks + shootdowns) *)
  per_core_busy_s : float array;  (** per-worker busy time, seconds *)
}

(** [run server ~loop ()] — keys drawn from a Zipf distribution
    ([theta], default 0.99 over [working_set] ranks, preloaded by the
    caller), per-connection churn cost
    ([conn_setup_cycles] on the accepting worker), and key-affine
    routing — with a sharded server each request executes on its shard's
    owning worker. Latency percentiles cover exactly this run's requests
    (end-to-end per request, protection discipline included); [ipis]
    counts the scheduler's IPIs during the run, so batched and per-update
    sync can be compared on identical workloads by seed. *)
val run :
  Server.t ->
  loop:loop ->
  ?value_size:int ->
  ?working_set:int ->
  ?theta:float ->
  ?conn_setup_cycles:float ->
  ?duration_s:float ->
  ?max_delay_s:float ->
  ?seed:int64 ->
  unit ->
  result
