(** The online continuous advisor: a long-running serve loop over a live
    statement stream.

    [Server] turns the offline advisor into the observe → recommend →
    validate → rollback production loop (AIM-style).  Statements are
    executed against the database as they arrive (the loop *is* the
    server) and buffered into fixed-size windows.  Each window close:

    + histogram the window by cost identity and compare with the previous
      window ({!Drift}) — the observe step;
    + if a deployment is on probation, check the window's *measured* I/O
      against the what-if cost of the pre-deployment design and roll back
      on regression — the rollback step;
    + otherwise act per regime: [Continuous] re-optimizes on drift (a
      constrained sequence-graph problem over the last [history] windows,
      seeded with the current materialised design as C0, solved by the
      configured method) and deploys only transitions the regret guard
      accepts ({!Guard}) — recommend + validate; [Reactive] applies the
      {!Cddpd_core.Online_tuner} policy every window with no safety layer
      (the related-work baseline); [Static] never changes the design.

    The three regimes run in this one harness so they are comparable on
    identical traffic: same windows, same drift bookkeeping, same I/O
    accounting.

    Determinism: the loop is single-domain, and so is every
    re-optimization ({!Cddpd_core.Problem.build} and the pruned k-aware
    DP), so the whole report is reproducible.  Index builds at deployment go
    through {!Cddpd_engine.Database.migrate_to}, i.e. sorted
    {!Cddpd_storage.Btree.bulk_load}s.

    Obs: the loop publishes the [serve.*] counters/histograms and the
    [serve.window] / [serve.reoptimize] / [serve.deploy] spans catalogued
    in docs/OBSERVABILITY.md. *)

type regime = Static | Reactive | Continuous

val regime_to_string : regime -> string

val regime_of_string : string -> (regime, string) result

type config = {
  table : string;  (** the table under design *)
  regime : regime;
  window : int;  (** statements per window (default 500) *)
  history : int;  (** windows per re-optimization problem (default 4) *)
  horizon : int;  (** windows the guard projects forward (default 4) *)
  drift_threshold : float;
      (** L1 distance that counts as drift (default
          {!Drift.default_threshold}); non-positive = re-optimize every
          window *)
  regret_budget : float;
      (** accept a transition only if its projected regret against C0 is
          at most this many cost units (default 0) *)
  rollback_factor : float;
      (** roll back when a probation window's measured I/O exceeds this
          multiple of the pre-deployment design's what-if cost
          (default 1.5) *)
  k : int;  (** change budget per re-optimization (default 2) *)
  method_name : Cddpd_core.Solution.method_name;  (** default [Kaware] *)
  composite_pairs : int;  (** candidate generation knob (default 2) *)
  max_structures_per_config : int option;  (** default [Some 1] *)
  space_bound_bytes : int option;  (** Definition 1's b, if any *)
  jobs : int option;
      (** ignored: kept so perfbench compiles; the next benchmark change
          drops it *)
  reopt_reuse : bool;
      (** thread a persistent {!Cddpd_core.Reopt} session through
          re-optimizations (default [true]); [false] builds every
          re-optimization from scratch, with bit-identical results.  No
          flag sets it: its one [false] caller is the serve bench's
          from-scratch arm, the reference its what-if-call gate compares
          against. *)
}

val default_config : table:string -> config

(** What the loop did at one window close. *)
type action =
  | No_action  (** no re-optimization ran (no drift, or [Static]) *)
  | Held of Guard.projection option
      (** re-optimized; recommendation was the incumbent design (or the
          solver gave up), nothing deployed *)
  | Deployed of {
      design : Cddpd_catalog.Design.t;
      projection : Guard.projection option;
          (** [None] for [Reactive] deployments (no guard ran) *)
      build_io : int;  (** logical I/O of the migration *)
    }
  | Rejected of {
      design : Cddpd_catalog.Design.t;
      projection : Guard.projection;  (** why the guard said no *)
    }
  | Rolled_back of {
      restored : Cddpd_catalog.Design.t;
      measured : float;  (** the probation window's measured logical I/O *)
      expected : float;  (** what-if cost under the restored design *)
      build_io : int;  (** logical I/O of the restoring migration *)
    }

type window_report = {
  index : int;  (** 0-based window number *)
  n_statements : int;
  design : Cddpd_catalog.Design.t;  (** the design that served this window *)
  exec_logical_io : int;  (** measured I/O of executing the window *)
  drift : float option;  (** distance to the previous window; [None] first *)
  drifted : bool;
  action : action;
  reopt_s : float;  (** wall seconds spent re-optimizing (0 when none ran) *)
  reopt_whatif_calls : int;
      (** what-if atom evaluations ([cost_model.calls]) this window's
          re-optimization made — build, solve and guard together; 0 when
          none ran or when instrumentation is off *)
}

type report = {
  regime : regime;
  windows : window_report array;
  statements : int;  (** statements executed, residual included *)
  residual_statements : int;  (** fed but still in the open window at finish *)
  drift_events : int;
  reoptimizations : int;
  deployments : int;
  rejections : int;
  rollbacks : int;
  exec_logical_io : int;  (** total measured execution I/O, residual included *)
  trans_logical_io : int;  (** total migration I/O (deployments + rollbacks) *)
  final_design : Cddpd_catalog.Design.t;
  reopt : Cddpd_core.Reopt.stats;
      (** the re-optimization session's accounting: builds, reuse tallies,
          warm-start bounds, and the atom memo's hits/misses/evictions *)
}

type t

val create :
  ?on_window:(window_report -> unit) -> Cddpd_engine.Database.t -> config -> t
(** A serve loop over the database.  [on_window] is called at each window
    close, after the window's control decisions — the streaming status
    hook the CLI prints from.  Raises [Invalid_argument] on a non-positive
    [window], [history] or [horizon], or an unknown [table]. *)

val reopt_stats : t -> Cddpd_core.Reopt.stats
(** Live re-optimization session accounting (also included in
    {!finish}'s report) — atom-memo hits, misses and evictions between
    re-optimizations, reuse tallies, warm-start bounds. *)

val history_keys : t -> Cddpd_engine.Cost_key.id array option
(** The statement keys a continuous re-optimization hands
    {!Cddpd_core.Problem.build}: the history windows' hashed cost-identity
    keys, oldest window first, each [key] equal to
    {!Cddpd_engine.Cost_key.statement} of its statement under the served
    table's current statistics.  Each id is the database's one id for
    its key ({!Cddpd_engine.Database.cost_id}), hashed once, when serve
    computes the key, and shared among equal keys; the same ids carry
    the plan memo at feed time and key the window close's clustering,
    the build's clustering and the atom memo.  The
    windows keep the keys computed at close and the snapshot they were
    computed under; this carries them to the current snapshot, re-keying
    only the statements for which {!Cddpd_engine.Cost_key.same_inputs}
    fails.  [None] when a window holds a statement on another table. *)

val feed : t -> Cddpd_sql.Ast.statement -> (window_report option, string) result
(** The memo-free reference path: check one arriving statement against
    the schema ({!Cddpd_engine.Check}), execute it on a transient prepared
    statement with no plan-memo key, and buffer it; when it completes a
    window, run the window-close protocol and return its report.  It
    memoizes nothing per text or per key: read-only statements are
    cost-keyed on arrival under the current statistics generation, as on
    {!feed_sql}, so the window close reuses instead of recomputing their
    identities (see {!Cddpd_engine.Database.stats_generation}).  No
    production path calls it; [Parser.parse] + [feed] is what tests and
    bench compare {!feed_sql} against, and the two give bit-identical
    reports.  [Error] carries the check's message: the statement was
    skipped, and nothing was executed, keyed or buffered. *)

val feed_sql : t -> string -> (window_report option, string) result
(** Parse one arriving statement text and serve it — the ingest path.
    Parsing goes through {!Cddpd_sql.Parser.parse_cached}: a repeated text
    reuses its AST, cost key, semantic validation and prepared statement
    ({!Cddpd_engine.Database.prepared}); a fresh text is parsed.  A text's
    first execution runs on a transient handle, and its second stores the
    handle in the text's cache entry, so a text seen once keeps nothing.
    Plan choice for the served table's reads is memoized on the
    statement's cost id ({!Cddpd_engine.Database.run}).  A statement is checked against the schema
    before it is keyed or executed.  [Error] carries the parse or check
    error message; nothing was executed or buffered.  Reports equal
    {!feed}'s on the parsed statements, bit for bit. *)

val template_stats : t -> Cddpd_sql.Template.stats
(** The statement cache's hit/miss counters. *)

val statement_cache :
  t -> (Cddpd_engine.Database.prepared, Cddpd_engine.Cost_key.id) Cddpd_sql.Template.t
(** The statement cache itself, for inspection.  A text's entry holds its
    parsed statement, cost tag (statistics generation and hashed cost
    key), validation bit and, from the text's second execution on, its
    prepared statement.  A lookup through {!Cddpd_sql.Template.find_exact}
    counts a hit. *)

val finish : t -> report
(** The run summary.  Statements still in the open window have been
    executed (they were served on arrival) but took part in no window
    decision; they are counted as [residual_statements].  The loop can
    keep feeding after [finish] — the report is a snapshot. *)
