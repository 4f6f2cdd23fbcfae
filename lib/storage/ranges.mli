(** Conjunctions of inclusive integer ranges over an encoded record.

    A range [(offset, lo, hi)] holds for a record at byte [base] of a
    buffer when the 64-bit little-endian integer at [base + offset] lies
    in [\[lo, hi\]]; a range with [lo > hi] holds for no record.  This is
    the form the storage kernels ({!Heap_file.scan},
    {!Heap_file.fetch_slice}, {!Btree.iter_range_slices}) test in their
    page loops, in place and with no allocation per record. *)

type t

val none : t
(** The empty conjunction: every record matches. *)

val of_list : (int * int * int) list -> t
(** [(offset, lo, hi)] triples, tested in list order.  Raises
    [Invalid_argument] on a negative offset. *)

val triples : t -> int array
(** The triples flattened as [offset; lo; hi; offset; lo; hi; ...]: what
    a kernel's loop walks. *)

val reach : t -> int
(** One past the last byte any range reads, counted from the record's
    start ([0] for {!none}): a kernel checks [base + reach] against the
    buffer once per record and then reads unchecked. *)

val has_equality : t -> bool
(** Whether some range is an equality [(offset, v, v)]: the only ranges
    a kernel's {!Synopsis} can decide ({!Synopsis.equalities} picks them
    out of {!triples}).  Computed once by {!of_list}, so a scan or probe
    with no equality pays one test to learn that. *)
