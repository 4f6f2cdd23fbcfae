(** The database façade: storage, catalog, statistics, planning and
    execution in one handle.

    This plays the role SQL Server played in the paper's experiments: it
    holds the data, materialises whatever physical design the advisor (or
    the simulator) asks for, executes statements with measured I/O, and
    exposes the what-if cost model through its statistics. *)

type t

val create :
  ?pool_capacity:int ->
  ?readahead:int ->
  ?params:Cost_model.params ->
  Cddpd_catalog.Schema.table list ->
  t
(** A fresh database with the given schema.  [pool_capacity] is the buffer
    pool size in pages (default 256); [readahead] is the pool's sequential
    prefetch budget (see {!Cddpd_storage.Buffer_pool.create}; [0]
    disables readahead — logical I/O is unaffected either way). *)

val params : t -> Cost_model.params

val schema : t -> string -> Cddpd_catalog.Schema.table option

val tables : t -> Cddpd_catalog.Schema.table list

val load : ?bulk:bool -> t -> table:string -> Cddpd_storage.Tuple.t array -> unit
(** Bulk-append tuples, maintaining any existing indexes and views and
    every integer column's value counts, and invalidate the table's
    statistics (rebuilt from the counts at the next
    {!table_stats}/{!analyze}: O(distinct values), no page read, no I/O).
    With [bulk] (the default) rows go heap-first, each integer column is
    counted by batch (one sort and merge), and each existing structure is
    rebuilt once via a sorted bulk load — same resulting logical state as
    the row-at-a-time path ([bulk:false]), built in O(n log n) instead of
    one tree descent per row per structure.  The bulk path validates
    every row before mutating anything, so a bad row rejects the whole
    batch; the row-at-a-time path stops at the bad row, keeping the rows
    before it.  Raises [Invalid_argument] on schema mismatch. *)

val row_count : t -> string -> int

val page_count : t -> string -> int
(** Pages the table's heap file occupies. *)

val scan : t -> string -> (Cddpd_storage.Tuple.t -> unit) -> unit
(** Every live row of the table, in storage order, read through the
    buffer pool (so it costs logical I/O).  No statistics path uses it;
    it is the reference a rescan-based check compares the maintained
    statistics against. *)

val analyze : t -> unit
(** Rebuild statistics for every table from the maintained value counts
    and bump each generation.  O(distinct values) per integer column; it
    reads no page and costs no I/O. *)

val table_stats : t -> string -> Table_stats.t
(** Statistics for the table, refreshed from the maintained value counts
    if stale: O(distinct values) per integer column, no page read, no
    I/O, so a refresh inside {!execute} never adds to the statement's
    [logical_io].  The refresh mutates the counts (it folds pending
    changes), so call it on the main domain before sharing the snapshot
    with worker domains.  Raises [Invalid_argument] on an unknown
    table. *)

val stats_generation : t -> string -> int
(** The table's statistics generation: bumped by every invalidation (DML,
    {!load}) and every {!analyze} replacement, but not by lazy
    materialization.  Within one generation at most one snapshot exists,
    so generation equality proves two {!table_stats} results are
    physically the same object — the fence serve's one-pass cost-identity
    pipeline keys on.  Reading it is free; resolving a new generation's
    snapshot costs O(distinct values) and no I/O. *)

(** {1 Physical design} *)

val current_design : t -> Cddpd_catalog.Design.t
(** The materialised design, assembled in declared table order so the
    result is deterministic across processes and hash seeds.  Memoized;
    recomputed only after a structure change. *)

val build_index : t -> Cddpd_catalog.Index_def.t -> unit
(** Materialise an index (no-op if already present). *)

val migrate_to : t -> Cddpd_catalog.Design.t -> unit
(** Build and drop indexes so the materialised design equals the target —
    the physical realisation of a TRANS step. *)

(** {1 Execution} *)

type exec_result = {
  rows : Cddpd_storage.Tuple.t list;
      (** result rows: a SELECT's in access order, an aggregate's in
          ascending group order whichever plan ran *)
  affected : int;  (** rows inserted / deleted / updated *)
  plan : Plan.t option;
      (** the chosen plan (selects and the find phase of DELETE/UPDATE) *)
  logical_io : int;  (** buffer pool page accesses *)
  physical_io : int;  (** disk page reads *)
}

type prepared
(** A handle on one statement: what its execution derives from the text
    alone, compiled lazily and kept.  Three compiles: the WHERE filter
    ({!Filter.compile}), the projection, and an index seek's key interval
    ({!Index.bounds} of {!Filter.seek}).  Each is keyed by the physical
    layout it was compiled against (a table's heap records or one index
    build's entries), so a handle never applies a compile made for
    another heap or index: after a migration, or on another database, it
    recompiles.  Plan choice is not part of the handle; it stays with the
    plan-choice memo.  A handle is single-domain. *)

val prepare : Cddpd_sql.Ast.statement -> prepared
(** A handle that has compiled nothing yet (no validation either). *)

val run : ?statement_key:Cost_key.id -> t -> prepared -> exec_result
(** Plan and run the handle's statement, compiling what the chosen plan
    needs on first use against each layout.  [statement_key] is as for
    {!execute}, already hashed ({!Cost_key.id}): serve hashes each key
    once, when it computes it, and passes that id on every execution.
    No semantic validation: the statement must already have passed
    {!Check.statement} against this database's schema.  Rows, plan and
    I/O equal a fresh {!execute}'s. *)

val execute :
  ?statement_key:string -> ?skip_check:bool -> t -> Cddpd_sql.Ast.statement -> exec_result
(** Validate, then {!run} a transient handle ({!prepare}): one statement,
    planned and run.  Raises [Invalid_argument] on semantic errors.

    [statement_key] engages the plan-choice memo for SELECT and aggregate
    statements: it should be [Cost_key.statement] of this statement under
    the table's *current* statistics (see {!stats_generation}); it is
    hashed once per call ({!Cost_key.id}) and passed to {!run}.  A memo
    hit skips {!Cost_model.choose_plan} and runs the bit-identical plan;
    plans hold no literal, and the executor takes the seek interval and
    a view probe's group value from this statement ({!Filter.seek}), so
    results and I/O are unchanged.  On a SELECT, a wrong key can cost
    I/O, never rows: the seek interval comes from this statement's own
    predicates, and the filter re-tests every one.  (It can still make
    execution raise [Invalid_argument]: a memoized covering plan meeting
    a statement that references a column outside the index key.)  On an
    aggregate, too, a wrong key costs I/O, never rows: a memoized view
    plan runs only when the planner's own rule
    ({!Cost_model.view_answers}) says the view answers this statement;
    otherwise the executor hash-aggregates over a full scan, and the
    result's [plan] (and the [plan.chosen.*] count) is that scan's
    ({!Cost_model.agg_scan_plan}), the path that ran.
    [skip_check] (default [false]) skips semantic validation;
    only pass [true] for a statement that already passed it against an
    unchanged schema, as serve's template cache does. *)

val plan_cache_stats : t -> Plan_cache.stats
(** Hit/miss/invalidation counters of the plan-choice memo. *)

val execute_sql : t -> string -> exec_result
(** Parse then {!execute}.  Raises [Cddpd_sql.Parser.Parse_error] or
    [Invalid_argument]. *)

(** {1 Measurement} *)

val io_counters : t -> int * int
(** Cumulative (logical, physical) I/O since creation: buffer pool page
    accesses and disk page reads. *)

