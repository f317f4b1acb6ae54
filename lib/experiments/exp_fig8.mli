(** Paper Fig 8: latency of libmpk's key cache under varying hit rates,
    eviction rates and thread counts, with the mprotect reference line.
    [mpk_mprotect] is invoked on one 4 KB page. *)

type cell = {
  hit_rate : int;  (** percent *)
  evict_rate : int;  (** percent *)
  threads : int;
  cycles : float;
}

(** The full figure. Exported, though only tests read it, for the claim
    records that will read each cell. *)
val grid : unit -> cell list

val render : unit -> string

(** The gated numbers: the 100/0/50% hit-rate cells at a 100% eviction
    rate and one thread, the mprotect reference and the hit path's
    speedup over it, a warm begin/end pair, and (full size only) the
    hit cell at four threads. [seed] varies the hit/miss choice
    sequence and libmpk's eviction PRNG. *)
val metrics : seed:int -> smoke:bool -> Env.metric list
