(** Identity keys for what-if costing.

    Memoizing the cost model needs keys with two properties.  They must be
    collision-safe — [Hashtbl.hash] does not qualify, because its bounded
    traversal ignores the tails of deep values — and they should be
    *cost-identities*, not syntactic identities: the workloads of the
    paper draw predicate constants at random, so
    [SELECT b FROM t WHERE a = 17] and [... WHERE a = 99] are distinct
    statements that usually cost exactly the same.

    {!statement} therefore serialises precisely what
    {!Cost_model.statement_cost} reads: the statement's shape (constructor,
    table, projection, per-predicate column / operator / value-kind, in
    predicate order), each predicate's selectivity under the given
    statistics (as exact float bits), and the table-shape numbers the cost
    formulas use (row count, page count, histogram count, and the group
    column's cardinality for aggregates).  Fields the cost model ignores —
    INSERT values, UPDATE assignments, the aggregate function — are
    deliberately left out, which is where the memo hit rate comes from.

    Soundness invariant: equal {!statement_under_design} keys imply equal
    [statement_cost], even across statistics snapshots (asserted by
    property test against random statements and statistics).  Equal
    {!statement} keys imply equal cost under every design only within one
    snapshot: they leave out the group cardinalities of views on a DML
    statement's table, which the under-design key adds.
    Anyone extending the cost model to read a new statement field must
    extend the key too.  Structure and design keys remain injective:
    distinct designs always get distinct keys. *)

val statement : Table_stats.t -> Cddpd_sql.Ast.statement -> string
(** The statement's cost identity under the given table statistics. *)

val structure : Cddpd_catalog.Structure.t -> string
(** ["I:<table>:<col>,<col>"] for an index, ["V:<table>:<col>"] for a
    materialized view.  Unlike {!Cddpd_catalog.Structure.name}, the table
    is part of the key. *)

val design : Cddpd_catalog.Design.t -> string
(** The design's structure keys joined with ["|"], in the design's
    canonical (sorted-set) order; [""] for the empty design. *)

val statement_under_design :
  design:Cddpd_catalog.Design.t ->
  design_key:string ->
  Table_stats.t ->
  Cddpd_sql.Ast.statement ->
  string
(** The memo key of one [EXEC(S, C)] evaluation: [design_key] (which must
    be [design design]), a newline, then {!statement}; for DML, followed by
    the group-column distinct count of each of the design's views on the
    statement's table — view maintenance cost reads it and {!statement}
    does not.  Neither component can contain a newline, so the pairing is
    unambiguous.  Equal keys imply equal {!Cost_model.statement_cost}. *)
