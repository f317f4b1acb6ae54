(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic choice in the simulator draws from an explicit [t] so
    that experiments and tests are reproducible from a seed. The state is
    held unboxed: [int] and [bool] allocate nothing, and [next] only its
    [int64]. [float] inlines across modules in the release profile, so a
    caller that computes or compares with its result allocates nothing
    either. *)

type t

val create : seed:int64 -> t

(** [copy t] is an independent generator with the same state as [t]. *)
val copy : t -> t

(** [next t] is the next raw 64-bit output. *)
val next : t -> int64

(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)
val int : t -> int -> int

(** [float t] is uniform in [\[0, 1)]. *)
val float : t -> float

(** [bool t ~p] is true with probability [p] (clamped to [\[0, 1\]]).
    Raises [Invalid_argument] when [p] is NaN. *)
val bool : t -> p:float -> bool

(** [split t] derives a fresh, statistically independent generator. *)
val split : t -> t
