(** Constrained-dynamic-physical-design problem instances (Definition 1).

    An instance fixes the workload steps, the configuration space, the
    initial configuration, and the two cost matrices the optimizers
    consume: [exec.(s).(c)] = EXEC of step [s] under configuration [c] and
    [trans.(i).(j)] = TRANS from configuration [i] to [j].  The change
    budget [k] is supplied per solver call, so one instance can be solved
    at many [k].

    A {e step} is a bag of statements: per-statement optimization (the
    Agrawal et al. formulation) is the special case of one statement per
    step, while the paper's experiments use 500-query segments.

    The space bound of Definition 1 is enforced at space-construction time
    ({!Config_space.enumerate}); every configuration in an instance is
    feasible by construction. *)

type t = private {
  steps : Cddpd_sql.Ast.statement array array;
  space : Config_space.t;
  initial : int;  (** config id of C0 *)
  exec : float array array;  (** steps x configs *)
  trans : float array array;  (** configs x configs *)
  count_initial_change : bool;
      (** whether C0 <> C1 consumes one of the k changes.  Definition 1
          counts it; the paper's own Table 2 example does not (its k=2
          design uses three configurations from an empty C0), so
          experiments set this to [false].  See DESIGN.md. *)
  graph : Cddpd_graph.Staged_dag.t Lazy.t;
      (** the memoized sequence graph; read it via {!to_graph} *)
}

(** {1 Incremental re-optimization state} *)

module Reuse : sig
  type t
  (** Persistent state an advisor session threads through successive
      {!build} calls: one {!Cddpd_engine.Cost_cache} of per-(cluster,
      structure) atom rows, which is the session's EXEC memo, and the
      reuse tallies.  A build given a [Reuse.t] evaluates only the atoms
      no earlier build evaluated for a cluster the previous build also
      had, and composes every configuration from the rows; a build whose
      clusters and structures all appeared in the previous build
      therefore makes no what-if call.

      The session also keeps its latest build's structure universe, TRANS
      matrix and EXEC rows.  The next build reuses them only when both
      hold: its space has the same designs in the same order, and every
      table's statistics are physically ([==]) the object the previous
      build read.  Then it keeps TRANS and the universe, and keeps the
      EXEC row of every step whose statement array is physically one the
      previous build costed and whose cost keys are equal to that step's
      keys then ([problem.steps_reused]); it composes and expands only
      the clusters and steps that remain.  The memo still sees every
      cluster, so its tallies do not depend on what was kept.  Otherwise
      the build takes the full path.  The returned matrices share rows
      with the previous build's: they are read-only.

      Reuse never changes a result, across statistics refreshes too: the
      memo's keys are the atoms' complete inputs (see
      {!Cddpd_engine.Cost_cache}), so matrices are bit-identical to a
      from-scratch build.

      A [Reuse.t] is only sound while the cost-model parameters behind
      it are fixed and must not be shared across concurrent builds. *)

  type tallies = {
    builds : int;  (** builds threaded through this session state *)
    exec_columns_reused : int;
        (** EXEC columns composed wholly from reused atoms: every cluster
            had a row in the previous build and no structure of the
            configuration needed a new atom *)
    clusters_recosted : int;
        (** clusters with no row in the memo *)
  }

  val create : unit -> t
  (** Fresh session state with an empty memo. *)

  val memo : t -> Cddpd_engine.Cost_cache.t
  (** The session's atom memo; its {!Cddpd_engine.Cost_cache.stats} are
      the session's what-if hits and misses. *)

  val tallies : t -> tallies
  (** Cumulative reuse accounting — the plain-int mirror of the
      [reopt.*] counters, readable with instrumentation off. *)
end

val build :
  params:Cddpd_engine.Cost_model.params ->
  stats_of:(string -> Cddpd_engine.Table_stats.t) ->
  steps:Cddpd_sql.Ast.statement array array ->
  space:Config_space.t ->
  initial:Cddpd_catalog.Design.t ->
  ?count_initial_change:bool ->
  ?reuse:Reuse.t ->
  ?statement_keys:Cddpd_engine.Cost_key.id array ->
  unit ->
  t
(** Compute the cost matrices from the what-if cost model.
    [count_initial_change] defaults to [false] (the paper's experimental
    convention).  Raises [Invalid_argument] if [steps] is empty or
    [initial] is not in the space.

    The build runs in stages, each under its own span inside
    [problem.build.exec].  It keys every statement by its hashed
    {!Cddpd_engine.Cost_key} cost identity ({!Cddpd_engine.Cost_key.id},
    [problem.build.key]) and clusters equal keys by their stored hashes
    ([problem.build.cluster], [workload.clusters]); the fill's atom memo
    looks the clusters up by the same ids.
    The fill ([problem.build.fill]) binds each new cluster's
    representative once ({!Cddpd_engine.Cost_model.bind}), evaluates its
    {!Cddpd_engine.Cost_model.atom} for every structure of the space —
    one [cost_model.calls] each — and composes every configuration's
    cluster costs from the atoms of its structures, a few float
    operations per structure.  Cluster costs are then re-expanded by
    summing them in the original statement order
    ([problem.build.expand]).  TRANS
    ([problem.build.trans]) computes every structure's build cost once
    and sums each pair's added structures from those, a few float
    additions per entry.  Every stage runs on the calling domain
    (docs/PERFORMANCE.md, "One domain").

    [reuse] threads the session state of {!Reuse} through the build: the
    fill reads and extends the session's atom memo (instrumented as
    [reopt.exec_columns_reused], [reopt.clusters_recosted] and the
    [cost_cache.*] counters), and the build keeps the universe, TRANS and
    EXEC rows of the session's previous build under the conditions
    {!Reuse} states.  Without [reuse] the build runs in a fresh
    session of its own: an empty session is the from-scratch build.

    [statement_keys] hands the build precomputed
    {!Cddpd_engine.Cost_key.statement} keys, hashed
    ({!Cddpd_engine.Cost_key.id}), for the concatenated steps, skipping
    the keying pass; the caller must guarantee they equal the
    keys under the statistics [stats_of] returns now (serve carries each
    history window's keys to the current snapshot first, re-keying the
    statements {!Cddpd_engine.Cost_key.same_inputs} cannot prove
    unchanged).  Raises
    [Invalid_argument] on a length mismatch.

    The matrices are bit-identical to the naive definition, whatever the
    session state or the keys passed in:
    [exec.(s).(c)] is the left fold of
    {!Cddpd_engine.Cost_model.statement_cost} over step [s] under
    configuration [c]'s design, and [trans.(i).(j)] is
    {!Cddpd_engine.Cost_model.transition_cost}.  Composition folds a
    design's atoms exactly as [statement_cost] does; clustering
    re-expands cluster costs in the original statement order; the memo
    only returns atoms whose cost identity proves them equal to a fresh
    evaluation.  See docs/PERFORMANCE.md. *)

val of_matrices :
  steps:Cddpd_sql.Ast.statement array array ->
  space:Config_space.t ->
  initial:int ->
  exec:float array array ->
  trans:float array array ->
  ?count_initial_change:bool ->
  unit ->
  t
(** Wrap precomputed matrices (used by tests to model arbitrary cost
    structures).  Raises [Invalid_argument] on dimension mismatches,
    negative costs, or non-zero self-transitions. *)

val n_steps : t -> int

val n_configs : t -> int

val to_graph : t -> Cddpd_graph.Staged_dag.t
(** The sequence graph of the instance: node cost [exec], edge cost
    [trans], source edges [trans from C0]. *)

val initial_for_counting : t -> int option
(** [Some initial] when initial changes are counted, else [None]; the
    argument solvers pass to {!Cddpd_graph.Staged_dag.path_changes}. *)

val path_cost : t -> int array -> float
(** Sequence execution cost of an assignment of one config per step. *)

val path_changes : t -> int array -> int
(** Design changes of an assignment, under the instance's counting
    convention. *)

val restrict : t -> int list -> t * int array
(** Sub-instance on a subset of config ids (the GREEDY-SEQ reduction); the
    returned mapping sends new ids to old ids.  The initial config is
    always retained.  Matrices are shared views (copied), not
    recomputed. *)
