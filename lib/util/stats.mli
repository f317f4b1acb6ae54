(** Summary statistics: percentiles of a sample array, and a
    fixed-bucket log-spaced histogram cheap enough to live inside hot
    simulator paths (kvstore and TLS request handling, the load
    generator). *)

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [0..100] (clamped), with linear
    interpolation between order statistics. Raises [Invalid_argument] on
    an empty array or any NaN sample (NaN has no rank; sorting it would
    silently skew the result). *)

(** A float slot in an all-float record, whose field is stored unboxed.
    A float passed to or returned from a function that is not inlined
    (such as {!Histogram.add}) is boxed; a sample written here and read
    by {!Histogram.add_sample} is not. *)
type sample = { mutable value : float }

(** Fixed-bucket histogram with log-spaced bounds.

    Bucket [i] covers [(lo·growth^(i-1), lo·growth^i]] (bucket 0 also
    absorbs everything [<= lo]); one extra overflow bucket catches
    samples above the last bound. The layout is fixed at [create] time,
    which is what makes {!Histogram.merge_into} and the per-bucket JSON
    export of the metrics registry well-defined. *)
module Histogram : sig
  type h

  val create : ?lo:float -> ?growth:float -> ?buckets:int -> unit -> h
  (** Defaults: [lo = 1.0], [growth = 2.0], [buckets = 32] (plus the
      implicit overflow bucket). Raises [Invalid_argument] unless
      [lo > 0.], [growth > 1.] and [buckets >= 1]. *)

  val add : h -> float -> unit
  (** Raises [Invalid_argument] on NaN — a silently mis-bucketed NaN
      would corrupt every percentile read from the buckets. *)

  val add_sample : h -> sample -> unit
  (** [add_sample h s] is [add h s.value], and allocates nothing. *)

  val count : h -> int
  val total : h -> float
  val mean : h -> float

  val minimum : h -> float
  (** Exact observed minimum (not bucket-quantized); [infinity] when empty. *)

  val maximum : h -> float
  (** Exact observed maximum; [neg_infinity] when empty. *)

  val merge_into : into:h -> h -> unit
  (** Add [src]'s buckets into [into]. Raises [Invalid_argument] if the
      two histograms were created with different [lo]/[growth]/[buckets]. *)

  val percentile : h -> float -> float
  (** Percentile estimated from bucket counts with linear interpolation
      inside the target bucket, clamped to the observed [minimum]/[maximum].
      Quantization error is bounded by the bucket width (a factor of
      [growth]). Raises [Invalid_argument] when empty. *)

  val p50 : h -> float
  val p95 : h -> float
  val p99 : h -> float

  val buckets : h -> (float * int) array
  (** [(upper_bound, count)] per bucket, ascending; the final overflow
      bucket reports [infinity] as its bound. Counts are per-bucket, not
      cumulative. *)
end
