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

    Soundness invariant: within one statistics snapshot, equal
    {!statement} keys imply bit-equal [statement_cost] under every design
    (asserted by property test against random statements and designs).
    That is what clustering relies on: {!Cddpd_core.Problem.build} and
    serve's probation check cost one representative per key.  Across
    snapshots the key is not enough — it leaves out, for instance, the
    group cardinality of the views a DML statement maintains — so memos
    that outlive a snapshot fence on {!Table_stats.fingerprint} instead
    ({!Cost_cache}).  Anyone extending the cost model to read a new
    statement field must extend the key too.  Structure keys are
    injective. *)

val statement : Table_stats.t -> Cddpd_sql.Ast.statement -> string
(** The statement's cost identity under the given table statistics. *)

val structure : Cddpd_catalog.Structure.t -> string
(** ["I:<table>:<col>,<col>"] for an index, ["V:<table>:<col>"] for a
    materialized view.  Unlike {!Cddpd_catalog.Structure.name}, the table
    is part of the key. *)
