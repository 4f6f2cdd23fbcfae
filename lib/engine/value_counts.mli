(** The sorted multiset of one integer column, maintained under DML.

    Counts are kept as (value, count) runs in two unboxed arrays.  Single
    rows go to a small pending log, folded in by one sort of the log and
    one linear merge; a batch is sorted, run-length encoded and merged at
    once.  {!histogram} then builds the column's histogram from the runs
    in O(distinct values), without reading a single row — the histogram
    {!Histogram.build} would give over the same multiset.

    Mutable and unsynchronised: like the statistics snapshot it feeds,
    it must be read on the main domain. *)

type t

val create : unit -> t
(** An empty multiset. *)

val add : t -> int -> unit
(** Count one occurrence of the value.  Amortised O(1) plus an occasional
    fold once the pending log outgrows the counts. *)

val remove : t -> int -> unit
(** Uncount one occurrence.  Removing a value more often than it was
    added makes the next fold raise [Invalid_argument]. *)

val add_batch : t -> int array -> unit
(** Count every element: one sort, one run-length pass and one merge.
    The array is sorted in place — pass a scratch copy. *)

val histogram : t -> Histogram.t
(** Fold any pending changes, then the histogram of the multiset (default
    bucket count), rebuilt by {!Histogram.of_counts} only when the counts
    changed since the last call.  Touches no page and costs no I/O. *)
