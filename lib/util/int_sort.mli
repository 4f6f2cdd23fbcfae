(** Monomorphic sorting of [int array]s.

    [Array.sort] pays an indirect comparator call per comparison (and, as
    a heapsort, makes about twice as many comparisons as a merge sort).
    This merge sort compares unboxed ints inline, which is ~4x faster —
    the difference between the index bulk-load path being a win or a wash
    at 100k rows. *)

val sort : int array -> unit
(** Sort ascending, in place.  Allocates one scratch array of the same
    length; not stable (irrelevant for ints). *)

val runs : int array -> int array * int array
(** [runs sorted] run-length encodes an ascending array: the strictly
    ascending distinct values and, parallel to them, how often each
    occurs (every count positive).  The input is not modified; an
    unsorted input gives meaningless runs. *)
