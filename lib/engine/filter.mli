(** A WHERE clause compiled once per statement for the scan kernels.

    Every integer comparison on a field at a fixed offset becomes an
    inclusive range [(offset, lo, hi)] ({!Cddpd_storage.Ranges}) that the
    storage kernel tests in place, in its page loop.  Everything else
    stays in the {e residual}, which the executor runs only on records
    that pass the ranges: text literals, text columns, and heap columns
    after a text column (whose offsets vary per record).  A {!layout}
    says where each column lives in the records a plan reads:

    - heap records ({!heap_layout}): column [i] of the all-integer prefix
      at {!Cddpd_storage.Tuple.int_field_offset}[ i];
    - index entries ({!entry_layout}): key column [j] at [8 * j]. *)

val interval : Cddpd_sql.Ast.cmp -> int -> int * int
(** [interval op v] is the inclusive range [(lo, hi)] of the integers [x]
    with [x op v].  It never wraps at the int edges: [Lt min_int] and
    [Gt max_int] give the empty range [(max_int, min_int)].  A range is
    empty when [lo > hi].  This is the one operator-to-range conversion:
    the filters, the selectivity estimates and the index probe bounds
    all use it. *)

val predicate_interval : Cddpd_sql.Ast.predicate -> (int * int) option
(** The inclusive range a predicate admits: {!interval}, or
    [(low, high)] for [BETWEEN] (empty when reversed); [None] when a
    literal is text. *)

(** {1 Index seeks} *)

type seek = {
  eq : int list;  (** one literal per leading key column, in key order *)
  range : (int * int) option;  (** the interval on the next key column *)
}
(** The key interval of a seek: equal to [eq] on the leading key columns
    and, with [range], inside the inclusive interval on the column after
    them. *)

val unbounded : seek
(** The whole key: no equality, no range. *)

val seek : string list -> Cddpd_sql.Ast.predicate list -> seek
(** [seek key where] is the one rule for which predicates an index seek
    on the key columns [key] uses.  It walks the key: a column whose
    first equality predicate has an integer literal adds that literal to
    [eq]; the first column without one ends the prefix, and gets a
    [range] when exactly one usable comparison sits on it (a non-equality
    [Cmp] or a [BETWEEN] with integer literals: {!predicate_interval}, so
    a reversed [BETWEEN] is empty).  It never fails; a predicate it does
    not use only widens the interval, and the executor's filter re-tests
    every predicate.  The cost model reads the seek's shape from it
    (prefix length, range or not), the executor its interval. *)

(** {1 Layouts} *)

type layout

val heap_layout : Cddpd_catalog.Schema.table -> layout
(** The table's encoded heap records. *)

val entry_layout : string list -> layout
(** Index entries whose key columns are the given ones. *)

val arity : layout -> int
(** Number of columns the layout places. *)

val position : layout -> string -> int
(** The column's position.  Raises [Invalid_argument] if the layout has
    no such column (for an entry layout: a covering plan that references
    a non-key column). *)

val read : layout -> int -> bytes -> int -> Cddpd_storage.Tuple.value
(** [read layout pos buf base] is column [pos] of the record at [base]:
    a direct 8-byte read at a fixed offset, the generic field walk
    otherwise. *)

val read_int : layout -> int -> bytes -> int -> int
(** {!read} of an integer column, unboxed. *)

(** {1 Compiled conjunctions} *)

type t

val compile : layout -> Cddpd_sql.Ast.predicate list -> t
(** Compile a conjunction once, resolving every column and offset.
    Raises [Invalid_argument] on a column the layout does not place. *)

val ranges : t -> Cddpd_storage.Ranges.t
(** The part a storage kernel tests in place. *)

val residual : t -> bytes -> int -> bool
(** The rest of the conjunction, for a record that passed {!ranges};
    [true] when nothing is residual. *)
