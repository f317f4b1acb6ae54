(** Paper Fig 14: Memcached throughput and unhandled connections at
    increasing connection rates, for the original server and the three
    protected variants (mpk_begin / mpk_mprotect / mprotect), with ~1 GiB
    of slab memory resident. Each cell is one {!Mpk_kvstore.Loadgen.run}
    open loop with uniform keys and no connection churn cost. *)

val render : unit -> string

(** The gated numbers: each mode's data throughput at 1000 conns/s and
    [fig14.sync_vs_mprotect], the paper's 8.1x. [smoke] shrinks the slab
    from 1 GiB to 64 MiB, where every mode keeps up with the offered
    load; [seed] varies the get/set request mix. *)
val metrics : seed:int -> smoke:bool -> Env.metric list
