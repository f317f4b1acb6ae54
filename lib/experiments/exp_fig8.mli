(** Paper Fig 8: latency of libmpk's key cache under varying hit rates,
    eviction rates and thread counts, with the mprotect reference line.
    [mpk_mprotect] is invoked on one 4 KB page. *)

type cell = {
  hit_rate : int;  (** percent *)
  evict_rate : int;  (** percent *)
  threads : int;
  cycles : float;
}

(** One grid cell. The seeds default to the figure's fixed values;
    `mpkctl bench` varies [wl_seed] (the hit/miss choice sequence) and
    [mpk_seed] (libmpk's internal PRNG) across trials, one seed per
    trial. *)
val run_cell :
  ?mpk_seed:int64 ->
  ?wl_seed:int64 ->
  hit_rate:int ->
  evict_rate:int ->
  threads:int ->
  unit ->
  cell

val grid : unit -> cell list

(** mprotect latency on the same page with the given thread count. *)
val mprotect_reference : threads:int -> float

val render : unit -> string
