(** Summary statistics: percentiles of a sample array, and a
    fixed-bucket log-spaced histogram (the load generator's latencies). *)

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [0..100] (clamped), with linear
    interpolation between order statistics. Raises [Invalid_argument] on
    an empty array or any NaN sample (NaN has no rank; sorting it would
    silently skew the result). *)

(** Fixed-bucket histogram with log-spaced bounds.

    Bucket [i] covers [(lo·growth^(i-1), lo·growth^i]] (bucket 0 also
    absorbs everything [<= lo]); one extra overflow bucket catches
    samples above the last bound. The layout is fixed at [create] time. *)
module Histogram : sig
  type h

  val create : ?lo:float -> ?growth:float -> ?buckets:int -> unit -> h
  (** Defaults: [lo = 1.0], [growth = 2.0], [buckets = 32] (plus the
      implicit overflow bucket). Raises [Invalid_argument] unless
      [lo > 0.], [growth > 1.] and [buckets >= 1]. *)

  val add : h -> float -> unit
  (** Raises [Invalid_argument] on NaN — a silently mis-bucketed NaN
      would corrupt every percentile read from the buckets. *)

  val percentile : h -> float -> float
  (** Percentile estimated from bucket counts with linear interpolation
      inside the target bucket, clamped to the exact observed minimum and
      maximum, so [percentile h 0.] and [percentile h 100.] are those
      extrema. Quantization error is bounded by the bucket width (a
      factor of [growth]). Raises [Invalid_argument] when empty. *)
end
