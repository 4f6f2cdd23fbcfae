(** Abstract syntax for the supported SQL subset.

    The workloads of the paper are single-table point queries
    ([SELECT <col> FROM t WHERE <col> = <v>]); the subset implemented here
    additionally covers projection lists, conjunctive comparison and
    BETWEEN predicates, and INSERT statements for loading data. *)

type value = Cddpd_storage.Tuple.value

type cmp = Eq | Lt | Le | Gt | Ge

type predicate =
  | Cmp of { column : string; op : cmp; value : value }
  | Between of { column : string; low : value; high : value }

type projection = Star | Columns of string list

type aggregate =
  | Count_star  (** COUNT( * ) *)
  | Sum of string  (** SUM(col) *)

type select = {
  projection : projection;
  table : string;
  where : predicate list;  (** conjunction; empty list means no WHERE *)
}

type statement =
  | Select of select
  | Select_agg of {
      table : string;
      group_by : string;
      aggregate : aggregate;
      where : predicate list;
    }
      (** [SELECT g, AGG FROM t \[WHERE ...\] GROUP BY g] — the query shape
          materialized views answer. *)
  | Insert of { table : string; values : value list }
  | Delete of { table : string; where : predicate list }
  | Update of {
      table : string;
      assignments : (string * value) list;  (** SET col = literal, ... *)
      where : predicate list;
    }

val equal_statement : statement -> statement -> bool
(** Structural equality. *)

val referenced_columns : statement -> string list
(** Every column mentioned anywhere in the statement (deduplicated,
    in first-mention order).  For DELETE/UPDATE these are the predicate
    (and assigned) columns. *)

val table_of : statement -> string
(** The table the statement reads or writes. *)

val where_of : statement -> predicate list
(** The statement's WHERE conjunction ([\[\]] for INSERT). *)

val is_read_only : statement -> bool
(** True only for SELECT. *)
