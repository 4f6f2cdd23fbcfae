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
    {!statement} keys imply bit-equal [statement_cost] under every design,
    which is what clustering relies on ({!Cddpd_core.Problem.build} and
    serve's probation check cost one representative per key).  Across
    snapshots, equal {!statement} keys and equal structure identities
    ({!structure} with {!structure_stats}) imply bit-equal
    {!Cost_model.atom}s, which is what lets {!Cost_cache} rows outlive a
    refresh.  Both are property-tested.  Anyone extending the cost model
    to read a new statement field or statistic must extend the key that
    carries it.  Structure keys are injective. *)

val statement : Table_stats.t -> Cddpd_sql.Ast.statement -> string
(** The statement's cost identity under the given table statistics. *)

val same_inputs : was:Table_stats.t -> now:Table_stats.t -> Cddpd_sql.Ast.statement -> bool
(** [same_inputs ~was ~now stmt] proves, without printing either key,
    that [statement was stmt] equals [statement now stmt]: the snapshots
    are physically the same, or their row count, page count and
    histogram count are equal and every column the key reads (each
    predicate's column, and an aggregate's grouping column) has
    physically the same histogram in both (or none in either).  A
    column's histogram stays the same object while DML leaves its values
    untouched ({!Value_counts.histogram}), so after a write this holds for
    every statement that reads no rewritten column.  [false] only means
    "not proven": the keys may still be equal.  The one staleness rule
    for keys carried across statistics snapshots. *)

val structure : Cddpd_catalog.Structure.t -> string
(** ["I:<table>:<col>,<col>"] for an index, ["V:<table>:<col>"] for a
    materialized view.  Unlike {!Cddpd_catalog.Structure.name}, the table
    is part of the key. *)

val structure_stats : Table_stats.t -> Cddpd_catalog.Structure.t -> int
(** The one statistic a structure's atoms read that no {!statement} key
    carries: a view's group count ({!Cost_model.view_rows}), which sizes
    its lookup tree and so the maintenance a write pays through it; [0]
    for an index, whose atoms read only the table shape and
    selectivities the statement key already holds. *)
