(** Equi-depth histograms over integer columns.

    The what-if optimizer needs selectivity estimates for equality and
    range predicates; an equi-depth histogram with per-bucket distinct
    counts is the classic structure for this (and what commercial systems
    use).  Built from the full column (or its value counts), so estimates
    are exact up to within-bucket uniformity assumptions. *)

type t

type bucket = {
  lo : int;  (** smallest value in the bucket *)
  hi : int;  (** largest value in the bucket *)
  count : int;  (** rows in the bucket *)
  distinct : int;  (** distinct values in the bucket *)
}
(** Buckets are sorted and disjoint: each bucket's [lo] is greater than
    the previous bucket's [hi]. *)

val build : ?buckets:int -> int array -> t
(** [build ?buckets values] builds a histogram with at most [buckets]
    buckets (default 64): it sorts a copy of [values], run-length
    encodes it and calls {!of_counts}.  The input array is not modified.
    Raises [Invalid_argument] if [buckets <= 0]. *)

val of_counts : ?buckets:int -> int array -> int array -> t
(** [of_counts ?buckets values counts] builds the histogram of the
    multiset in which [values.(i)] occurs [counts.(i)] times, in
    O(distinct values): [build] of any array holding that multiset gives a
    histogram with equal {!add_fingerprint_bytes}.  Each bucket holds
    whole distinct values and takes the next one while it holds fewer than
    [ceil (total / buckets)] rows.  Raises [Invalid_argument] if
    [buckets <= 0], the arrays differ in length, [values] is not strictly
    ascending, or a count is not positive. *)

val of_buckets : bucket array -> t
(** A histogram over exactly these buckets (copied), with totals summed
    from them — for a reference bucketing built outside this module.
    Raises [Invalid_argument] unless every bucket has positive counts and
    [lo <= hi] and the buckets are sorted and disjoint. *)

val n_values : t -> int
(** Total number of (non-distinct) values the histogram summarises. *)

val n_distinct : t -> int
(** Exact number of distinct values seen at build time. *)

val selectivity_eq : t -> int -> float
(** Estimated fraction of rows with column = v, in [\[0,1\]].  Finds the
    one bucket that can hold [v] by binary search. *)

val selectivity_range : t -> lo:int option -> hi:int option -> float
(** Estimated fraction of rows with lo <= column <= hi (either bound may be
    absent), in [\[0,1\]].  Binary-searches the first overlapping
    bucket and sums the overlapping run in order: bit-identical to a
    linear fold over every bucket, where the others add [0.0]. *)

val buckets : t -> bucket array
(** A copy of the buckets, in ascending order. *)

val add_fingerprint_bytes : Buffer.t -> t -> unit
(** Append a fixed-width binary encoding of the histogram's full contents
    (totals, then every bucket's boundaries and counts) — what
    {!Table_stats.fingerprint} digests.  Two histograms with equal
    encodings produce identical selectivity estimates for every
    predicate. *)

val min_value : t -> int option
(** Smallest value, [None] for an empty histogram. *)

val max_value : t -> int option
(** Largest value, [None] for an empty histogram. *)

val pp : Format.formatter -> t -> unit
(** Debug rendering of bucket boundaries and counts. *)
