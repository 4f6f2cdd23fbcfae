(** Monomorphic sorting of [int array]s.

    [Array.sort] pays an indirect comparator call per comparison.  This
    is an LSD radix sort over the bits on which the values differ: two
    counting passes, then one stable scatter per 8-bit digit (an
    insertion sort below 33 elements).  Packed index keys sort in four or
    five scatters, with no comparison at all — the bulk-load path of
    every index build. *)

val sort : int array -> unit
(** Sort ascending, in place.  Allocates one scratch array of the same
    length and a digit-count table of at most 2,048 words (neither below
    33 elements). *)

val sort_prefix : int array -> int -> unit
(** [sort_prefix a n] sorts [a.(0) .. a.(n-1)] ascending, in place.  When
    [a] holds at least [2 * n] elements, [a.(n) .. a.(2n-1)] are the
    scratch space and are left unspecified; otherwise a scratch array of
    length [n] is allocated.  Elements from [2 * n] on are untouched.
    Raises [Invalid_argument] unless [0 <= n <= Array.length a]. *)

val runs : int array -> int array * int array
(** [runs sorted] run-length encodes an ascending array: the strictly
    ascending distinct values and, parallel to them, how often each
    occurs (every count positive).  The input is not modified; an
    unsorted input gives meaningless runs. *)
