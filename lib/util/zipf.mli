(** Zipfian rank sampler (YCSB-style): [P(rank = r)] proportional to
    [1 / (r+1)^theta] over ranks [0..n-1], rank 0 hottest. Deterministic
    given the caller's {!Prng}. *)

type t

(** [create ?theta ~n ()] — precomputes the CDF in O(n). [theta]
    defaults to 0.99 (YCSB's skew); [theta = 0.] is uniform and builds
    no CDF; [theta = infinity] puts all mass on rank 0. Raises
    [Invalid_argument] when [n < 1], [theta < 0] or [theta] is NaN. *)
val create : ?theta:float -> n:int -> unit -> t

val n : t -> int

(** O(log n) binary search over the precomputed CDF, driven by one
    [Prng.float] draw; with [theta = 0.], exactly one [Prng.int prng n]
    draw. Neither allocates in the release profile, where [Prng.float]
    inlines. *)
val sample : t -> Prng.t -> int
