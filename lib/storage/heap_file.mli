(** Heap files: unordered tuple storage in slotted pages.

    Tuples are appended to the last page with room; a full insert allocates
    a new page.  Deletion clears the slot but does not reclaim space (the
    workloads in this library are read-mostly; compaction is out of
    scope). *)

type t

type rid = { page : int; slot : int }
(** Record identifier: page id plus slot number within the page. *)

val compare_rid : rid -> rid -> int
(** Lexicographic (page, slot) order. *)

val create : Buffer_pool.t -> t
(** A fresh empty heap file. *)

val insert : t -> Tuple.t -> rid
(** Append a tuple.  Raises [Invalid_argument] if the encoded tuple cannot
    fit in an empty page. *)

val fetch : t -> rid -> Tuple.t option
(** [fetch t rid] returns the decoded tuple, or [None] if the slot was
    deleted: {!fetch_slice} with {!Ranges.none}.  Raises
    [Invalid_argument] on an out-of-range rid. *)

val fetch_slice : t -> rid -> ranges:Ranges.t -> (bytes -> int -> unit) -> unit
(** The single-record kernel.  [fetch_slice t rid ~ranges f] tests
    [ranges] in place on the live record of [rid] and calls [f buf base]
    on it only when they hold: the page buffer and the record's byte
    offset, valid only during the call (read fields with
    {!Tuple.get_field_at}).  It does nothing if the slot was deleted.
    One page access, no decoding.  Raises [Invalid_argument] on an
    out-of-range rid. *)

val delete : t -> rid -> bool
(** Clear the slot; returns whether a live tuple was there. *)

val scan : t -> ranges:Ranges.t -> (bytes -> int -> int -> int -> unit) -> unit
(** The full-scan kernel.  [scan t ~ranges f] visits every page in
    storage order through {!Buffer_pool.fetch_sequential} (scan-resistant
    eviction plus readahead, unchanged logical-I/O accounting: one access
    per page), reads each page's slot directory inline, tests [ranges] on
    every live record in place and calls [f buf base page slot] only on
    the records that match: the page buffer, the record's byte offset
    (valid only during the call), and the record's rid as two ints.  The
    loop allocates nothing per record; every full scan goes through it.

    Each page keeps an equality {!Synopsis} keyed by field: hashed
    (field, value) pairs over its records' leading [Int] fields, which
    the scan builds from the bytes it has fetched, hashing each slot once.
    When a range [(off, v, v)] sits at the fixed offset
    ({!Tuple.int_field_offset}) of a field that is [Int] in every live
    record of the page, and the synopsis has no bit for [v] there, no
    record of the page can match: the scan skips that page's record loop
    and counts it in [heap_file.pages_skipped].  A skipped page is still
    fetched and unpinned like any other, so the scan's logical and
    physical I/O are the same as without synopses.  A synopsis may say
    "maybe" for a value only deleted records held, never "no" for a value
    a live record holds. *)

val iter : t -> (rid -> Tuple.t -> unit) -> unit
(** Full scan in storage order, skipping deleted slots, decoding every
    tuple: {!scan} with {!Ranges.none}. *)

val n_tuples : t -> int
(** Live tuple count. *)

val n_pages : t -> int
(** Number of pages the file occupies. *)

val release : t -> unit
(** Give every page of the file back to the disk
    ({!Buffer_pool.release}), once the file is dropped (a materialized
    view's rows).  The file must not be used afterwards.  No page is
    fetched and no I/O is counted. *)
