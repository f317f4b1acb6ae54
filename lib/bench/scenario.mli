(** The benchmark scenarios behind `mpkctl bench`: one per committed
    baseline id, each a seed-parameterized re-run of (a slice of) the
    corresponding paper experiment that returns named metrics.

    The simulator is fully deterministic for a fixed seed: trial [t]
    runs at [seed + t], which re-seeds the hit/miss choice sequence
    (fig8), the zipfian key stream (scale), and the get/set request mix
    (fig14), and re-running a seed reproduces its value bit-for-bit.
    Values differ between seeds because the workload differs, not
    because of noise, so the gate compares each fresh trial with the
    baseline sample of the same seed ({!Gate}). *)

type direction =
  | Lower_better  (** latencies, cycle counts *)
  | Higher_better  (** throughputs, speedup ratios *)

val direction_to_string : direction -> string
val direction_of_string : string -> (direction, string) result

type metric = { name : string; value : float; direction : direction }

val ids : string list
(** [["fig8"; "table1"; "scale"; "fig14"]]. *)

val known : string -> bool

val run : id:string -> seed:int -> smoke:bool -> metric list
(** Deterministic for a given [(id, seed, smoke)]. Raises
    [Invalid_argument] on an unknown id; any internal validation
    failure (e.g. scale auditor violations) raises [Failure]. *)
