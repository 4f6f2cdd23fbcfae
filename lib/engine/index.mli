(** Physical secondary indexes: a {!Cddpd_storage.Btree} keyed by the
    indexed column values with the rid appended, so that duplicate column
    values remain distinct keys and prefix scans recover the rids.

    Indexes are restricted to integer columns (text keys would need
    order-preserving encoding, which the paper's workloads never use). *)

type t

val build :
  Cddpd_storage.Buffer_pool.t ->
  Cddpd_catalog.Schema.table ->
  Cddpd_storage.Heap_file.t ->
  Cddpd_catalog.Index_def.t ->
  t
(** Scan the heap, sort, and bulk-load the tree.  The scan is the heap
    kernel ({!Cddpd_storage.Heap_file.scan}): each live record's key
    columns are read in place ({!Filter.read_int}), no tuple is decoded,
    and the keys fill one flat [int array] sized by the live-tuple count,
    key after key, with no array per entry.  The sort packs each key into
    a single word in place whenever the observed component ranges fit 62
    bits (they essentially always do), radix-sorts the packed words with
    the rest of the array as scratch ({!Cddpd_util.Int_sort.sort_prefix})
    and unpacks them in place; wider keys take a comparator sort.  The
    sorted array is what {!Cddpd_storage.Btree.bulk_load} copies into the
    leaves.  Raises [Invalid_argument] if the definition references a
    missing or non-integer column. *)

val build_of_rows :
  Cddpd_storage.Buffer_pool.t ->
  Cddpd_catalog.Schema.table ->
  Cddpd_catalog.Index_def.t ->
  rows:Cddpd_storage.Tuple.t array ->
  rids:Cddpd_storage.Heap_file.rid array ->
  t
(** Like {!build}, but over an in-memory batch of (row, rid) pairs instead
    of a heap scan (the keys go into the same flat array) — the bulk-load fast path for a table whose heap holds
    exactly these rows.  The caller is responsible for that invariant;
    rows already in the heap but absent from the batch are simply missing
    from the tree.  Raises [Invalid_argument] on length mismatch or a bad
    column. *)

val def : t -> Cddpd_catalog.Index_def.t

val layout : t -> Filter.layout
(** Where each key column sits in an entry: column [j] at [8 * j]. *)

val insert_entry : t -> Cddpd_storage.Tuple.t -> Cddpd_storage.Heap_file.rid -> unit
(** Index maintenance after a heap insert. *)

val delete_entry : t -> Cddpd_storage.Tuple.t -> Cddpd_storage.Heap_file.rid -> bool
(** Index maintenance after a heap delete; returns whether the entry was
    present. *)

type bounds = { lo : int array; hi : int array }
(** A seek's key interval in this index's key space: inclusive low and
    high keys over the key columns, the rid components unbounded. *)

val bounds : t -> Filter.seek -> bounds
(** The key interval of a seek ({!Filter.seek} over this index's key
    columns).  The unbounded seek's interval is built once per index and
    shared; any other seek's is fresh, so a caller that runs the same seek
    again keeps the result. *)

val probe : t -> bounds -> Cddpd_storage.Heap_file.rid list
(** Rids whose key lies in the interval, in key order: the rids a
    non-covering seek fetches.  An empty range selects nothing and fetches
    no page. *)

val probe_slices :
  t -> bounds -> ranges:Cddpd_storage.Ranges.t -> (bytes -> int -> unit) -> unit
(** The covering seek, and with the unbounded seek's interval the
    index-only scan: {!probe}'s key interval walked by
    {!Cddpd_storage.Btree.iter_range_slices}, testing [ranges] on every
    entry in place.  The callback receives the leaf page buffer and the
    byte offset of each matching entry (key column [j]'s value at
    [offset + 8 * j]), valid only during the call. *)

val height : t -> int

val n_pages : t -> int
(** Pages the index's tree occupies. *)

val release : t -> unit
(** Give every page of the tree back to the disk
    ({!Cddpd_storage.Btree.release}) when the index is dropped.  The
    index must not be used afterwards. *)
