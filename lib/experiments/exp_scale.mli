(** Multi-core scale-out of the kvstore ({!Mpk_kvstore.Scale}): throughput
    and tail latency per core count in [Sync] mode, with batched
    do_pkey_sync IPIs measured against the per-update broadcast. *)

(** The full-size sweep at 1, 2 and 4 cores, seed 0xC0FE: the lines
    `mpkctl scale` prints for its defaults, then any validation problem. *)
val render : unit -> string

(** The gated numbers: batched throughput and p99 per core count (1 and
    2 cores under [smoke], else 1, 2 and 4) and the batched runs' total
    [Ipi] events. [seed] varies the zipfian key stream. Raises [Failure]
    on any {!Mpk_kvstore.Scale.problems}. *)
val metrics : seed:int -> smoke:bool -> Env.metric list
