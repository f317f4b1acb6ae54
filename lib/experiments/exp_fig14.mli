(** Paper Fig 14: Memcached throughput and unhandled connections at
    increasing connection rates, for the original server and the three
    protected variants (mpk_begin / mpk_mprotect / mprotect), with ~1 GiB
    of slab memory resident. *)

type point = {
  mode : Mpk_kvstore.Server.mode;
  conn_rate : int;
  data_mb_s : float;
  unhandled : int;
}

(** [points ()] sweeps the figure's full grid. `mpkctl bench` passes a
    smaller [slab_mib], a single [conn_rates] entry, and a per-trial
    workload [seed] (default 0xFEED) to turn one cell of the figure into
    a repeatable per-seed metric. Each cell is one
    {!Mpk_kvstore.Loadgen.run} open loop with uniform keys and no
    connection churn cost. *)
val points :
  ?slab_mib:int -> ?seed:int64 -> ?conn_rates:int list -> unit -> point list

val render : ?slab_mib:int -> unit -> string
