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

    The key is packed bytes, not text, and nothing on its path is
    formatted: the row, page and histogram counts come first as three
    little-endian int64s, then a one-byte statement tag ([S], [A], [N],
    [D], [U]) and the table name ended by [':'].  A SELECT adds its
    projection ([*], or each column followed by [',']) and a [':']; an
    aggregate adds its group column ended by [':'] and its group count as
    an int64.  Each predicate is then a one-byte operator tag ([b] for
    BETWEEN), its column ended by [':'], one value-kind byte per bound
    ([i] or [t]) and its selectivity's float bits as an int64.
    Identifiers cannot hold [':'] or [','], and every fixed-width field
    sits where the fields before it say, so two keys are equal exactly
    when all their fields are — as fine as a printed form of the same
    fields, which the tests keep as the oracle — and a key is not meant
    to be read.

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

(** {1 Hashed identities}

    A key is some tens of bytes (117 for a seven-predicate SELECT on
    one-letter columns), and every memo and clustering pass on serve's
    path looks it up.  An {!id} carries the key with its hash,
    computed once when the key is made, so each later table lookup reads
    the stored hash instead of re-hashing the string.  Equality is still
    the full key ({!id_equal}), so every soundness argument above holds
    for ids unchanged: the hash is never taken as the key. *)

type stamp
(** A design fence: {!Database} holds one stamp per deployed design and
    replaces it on every structure change.  Stamps are compared
    physically, so no two databases, and no two designs of one
    database, share one. *)

val stamp : unit -> stamp
(** A stamp no id holds yet. *)

(** An id's plan slot: the plan chosen for its key, and the stamp of the
    design it was chosen under. *)
type memo = No_plan | Plan of { stamp : stamp; plan : Plan.t }

type id = private {
  key : string;  (** the {!statement} key *)
  hash : int;  (** [Hashtbl.hash key] *)
  mutable memo : memo;
      (** the plan-choice memo: a plan stored under the running design's
          stamp is the plan a fresh [Cost_model.choose_plan] would make
          for any statement with this key, because the key names every
          cost input but the design, and the stamp names the design *)
}

val id : string -> id
(** [id key] hashes [key] once, with an empty plan slot.  The database
    makes one id per distinct key and shares it ({!Database.cost_id}),
    so equal keys are usually the same id physically, and so share one
    plan slot. *)

val remember : id -> stamp -> Plan.t -> unit
(** Store the plan chosen under the design [stamp] names, replacing the
    slot's previous plan. *)

val forget : id -> stamp -> unit
(** [forget id stamp] empties the slot if it holds a plan stored under
    [stamp] itself (compared physically), and leaves it alone otherwise:
    an id shared by two databases may hold the other's plan by then.
    The database calls it for each id it stored in when a design change
    retires [stamp], so a dead plan does not outlive its design. *)

val id_equal : id -> id -> bool
(** Physical equality, or equal hashes and equal keys. *)

val id_hash : id -> int
(** The stored hash, which agrees with {!id_equal}: the [hash] a
    clustering pass over ids passes ({!Cddpd_workload.Compress.cluster_by}). *)

module Id_tbl : Hashtbl.S with type key = id
(** Tables keyed by ids: lookups read the stored hash and compare keys
    with {!id_equal}. *)

val same_inputs : was:Table_stats.t -> now:Table_stats.t -> Cddpd_sql.Ast.statement -> bool
(** [same_inputs ~was ~now] prepares, once per snapshot pair, a proof
    that [statement was stmt] equals [statement now stmt] without computing
    either key.  It compares the row count, page count and histogram
    count, and lists the columns whose histogram is not physically the
    same in both snapshots (or present in only one); applied to [stmt], it
    holds when the snapshots are physically the same, or their shapes are
    equal and no column the key reads (each predicate's column, and an
    aggregate's grouping column) is listed.  A column's histogram stays
    the same object while DML leaves its values untouched
    ({!Value_counts.histogram}), so after a write this holds for every
    statement that reads no rewritten column.  [false] only means "not
    proven": the keys may still be equal.  The one staleness rule for
    keys carried across statistics snapshots; bind it once per pair and
    apply it to each statement. *)

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
