(** Summary statistics: percentiles of a sample array. *)

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [0..100] (clamped), with linear
    interpolation between order statistics. Raises [Invalid_argument] on
    an empty array or any NaN sample (NaN has no rank; sorting it would
    silently skew the result). *)
