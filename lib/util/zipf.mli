(** Zipfian rank sampler (YCSB-style): [P(rank = r)] proportional to
    [1 / (r+1)^theta] over ranks [0..n-1], rank 0 hottest. Deterministic
    given the caller's {!Prng}. *)

type t

(** [create ?theta ~n ()] — precomputes the CDF in O(n). [theta]
    defaults to 0.99 (YCSB's skew); [theta = 0.] is uniform and builds
    no CDF. Raises [Invalid_argument] when [n < 1] or [theta < 0]. *)
val create : ?theta:float -> n:int -> unit -> t

val n : t -> int

(** O(log n) binary search over the precomputed CDF; with [theta = 0.],
    exactly one [Prng.int prng n] draw. *)
val sample : t -> Prng.t -> int
