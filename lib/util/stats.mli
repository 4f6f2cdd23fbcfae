(** Small descriptive-statistics helpers used by benchmarks and tests. *)

val mean : float array -> float
(** Arithmetic mean.  Raises [Invalid_argument] on an empty array. *)

val variance : float array -> float
(** Population variance.  Raises [Invalid_argument] on an empty array. *)

val minimum : float array -> float
(** Smallest element.  Raises [Invalid_argument] on an empty array. *)

val maximum : float array -> float
(** Largest element.  Raises [Invalid_argument] on an empty array. *)

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [\[0,100\]], linear interpolation between
    order statistics.  Does not mutate [xs].  Raises [Invalid_argument] on
    an empty array or [p] outside [\[0,100\]]. *)

val histogram_counts : float array -> buckets:int -> lo:float -> hi:float -> int array
(** [histogram_counts xs ~buckets ~lo ~hi] counts elements per equal-width
    bucket over [\[lo, hi)]; out-of-range elements are clamped into the
    first/last bucket.  Raises [Invalid_argument] if [buckets <= 0] or
    [hi <= lo]. *)
