(** Incremental re-optimization sessions.

    A [Reopt.t] is the state an online advisor (the serve loop) keeps
    {e between} re-optimizations, so that consecutive drift events do not
    pay from-scratch costing and cold-started search:

    - a persistent {!Problem.Reuse} session: the
      {!Cddpd_engine.Cost_cache} of per-cluster atom rows, which
      {!Problem.build} consults to evaluate only the (cluster, structure)
      atoms it has not seen, and the previous build's universe, TRANS and
      EXEC rows, which a build over the same space and statistics keeps
      for the history windows it shares with that build;
    - warm-started solving: {!solve} seeds the exact solvers'
      branch-and-bound with the incumbent's hold-at-C0 what-if cost
      (a feasible zero-change schedule, hence always a valid upper
      bound), via {!Optimizer.solve}'s [upper_bound].

    Everything is bit-identical to the from-scratch path: reuse only
    reads atoms whose {!Cddpd_engine.Cost_key} cost identities prove
    them equal, under whatever statistics the build sees, and warm
    bounds never change what the exact solvers return — only
    how fast.  Property-tested over random drift traces in
    [test_serve.ml].

    Sessions assume fixed cost-model parameters (same contract as
    {!Cddpd_engine.Cost_cache}) and are not domain-safe: drive one
    session from one domain (builds parallelise internally). *)

type t

type stats = {
  reoptimizations : int;  (** problems built through this session *)
  warm_start_bounds : int;  (** solves seeded with a hold-at-C0 bound *)
  reuse : Problem.Reuse.tallies;
      (** exec reuse accounting (zeros when reuse is disabled) *)
  cache : Cddpd_engine.Cost_cache.stats;
      (** the session's atom memo: atoms read and evaluated, rows evicted
          (zeros when reuse is disabled) *)
}

val create : ?reuse:bool -> Cddpd_engine.Database.t -> t
(** A fresh session over [db].  [reuse] (default [true]) enables the
    persistent {!Problem.Reuse} state; with [reuse:false] every
    {!build_problem} is a from-scratch build and only warm-started
    solving remains.  No flag sets it: the serve bench's from-scratch arm
    ([Server.config.reopt_reuse]) is its one [false] caller, the reference
    the incremental path's what-if-call gate compares against. *)

val build_problem :
  ?statement_keys:Cddpd_engine.Cost_key.id array -> t -> Advisor.request -> Problem.t
(** {!Advisor.build_problem} threaded through the session's reuse state.
    [statement_keys] as in {!Problem.build} — precomputed hashed
    cost-identity keys for the request's concatenated steps, valid only under the
    current statistics. *)

val solve :
  ?k:int ->
  ?jobs:int ->
  ?max_paths:int ->
  ?max_queue:int ->
  t ->
  Problem.t ->
  method_name:Solution.method_name ->
  (Solution.t, Optimizer.error) result
(** {!Optimizer.solve} with the branch-and-bound seeded by the
    incumbent's hold-at-C0 cost of [problem] (always a valid bound: the
    hold schedule makes zero changes).  Identical results to an unseeded
    solve, measured by [reopt.warm_start_bound_used]. *)

val stats : t -> stats
(** Session accounting, readable with instrumentation off — what
    [cddpd serve --status] reports between re-optimizations. *)
