(** Materialized aggregate views: the physical realisation of
    {!Cddpd_catalog.View_def}.

    A view stores one row per distinct value of its grouping column:
    [(g, count, sum_c1, sum_c2, ...)] over every integer column of the
    base table, in a heap file with a B+-tree on [g] for point lookups.
    COUNT and SUM are self-maintainable, so base-table inserts, deletes
    and updates are reflected with one view-row rewrite each. *)

type t

type row = {
  group_value : int;
  count : int;
  sums : int array;  (** one sum per {!sum_columns} entry, in order *)
}

val build :
  Cddpd_storage.Buffer_pool.t ->
  Cddpd_catalog.Schema.table ->
  Cddpd_storage.Heap_file.t ->
  Cddpd_catalog.View_def.t ->
  t
(** Scan the base table and materialise the aggregates.  Raises
    [Invalid_argument] if the grouping column is missing or not an
    integer. *)

val def : t -> Cddpd_catalog.View_def.t

val sum_columns : t -> string list
(** The base table's integer columns, in the order [sums] uses. *)

val lookup : t -> int -> row option
(** The aggregate row for one group value ([None]: no base rows). *)

val scan : t -> (row -> unit) -> unit
(** All aggregate rows, in storage (unspecified) order; costs one page
    access per view heap page. *)

val apply_insert : t -> Cddpd_storage.Tuple.t -> unit
(** Reflect a base-table insert. *)

val apply_delete : t -> Cddpd_storage.Tuple.t -> unit
(** Reflect a base-table delete; removes the group row when its count
    reaches zero.  Raises [Failure] if the group is not present (the view
    would be inconsistent with the base table). *)

val n_pages : t -> int
(** Pages the view occupies: its heap's and its lookup tree's. *)

val release : t -> unit
(** Give every page of the view's heap and tree back to the disk
    ({!Cddpd_storage.Heap_file.release}, {!Cddpd_storage.Btree.release})
    when the view is dropped.  The view must not be used afterwards. *)
