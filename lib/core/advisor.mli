(** The advisor façade: workload in, recommended design schedule out.

    Wires together candidate generation, configuration-space construction,
    what-if cost matrices, and the chosen solver.  This is the API a DBA
    (or the CLI in [bin/]) uses; the individual pieces remain available
    for finer control. *)

type request = {
  steps : Cddpd_sql.Ast.statement array array;
      (** the workload, one statement bag per step *)
  table : string;  (** the table under design *)
  candidates : Cddpd_catalog.Structure.t list option;
      (** explicit candidate structures (indexes and/or views), or [None]
          to derive them from the workload *)
  composite_pairs : int;  (** composite index candidates to derive (default 2) *)
  max_candidates : int option;
      (** the [--candidates] flag: cap on generated candidates.  Setting
          this (or [composite_width]) switches auto-derivation from the
          paper's pairs heuristic to the multi-column generator
          {!Candidates.generate} *)
  composite_width : int option;
      (** the [--composite-width] flag: widest composite index the
          multi-column generator derives (generator default 3) *)
  prune : int option;
      (** the [--prune] flag: [Some budget] what-if-scores the candidates
          against the compressed workload, drops benefit-dominated ones,
          keeps at most [budget], and builds the space with
          {!Pruner.space} instead of {!Config_space.enumerate} *)
  max_configs : int option;
      (** configuration budget for the pruned space (default 512); only
          read when [prune] is set *)
  max_structures_per_config : int option;
      (** at most this many structures per configuration (default [Some 1],
          the paper's design space) *)
  space_bound_bytes : int option;  (** Definition 1's b, if any *)
  initial : Cddpd_catalog.Design.t;  (** C0 *)
  count_initial_change : bool;
  k : int option;  (** change budget; [None] = unconstrained *)
  method_name : Solution.method_name;
  jobs : int option;
      (** domains for {!Problem.build}; [None] = process default *)
  max_paths : int option;
      (** complete-path budget for the [Ranking] method; [None] = solver
          default (1_000_000) *)
  max_queue : int option;
      (** frontier-size budget for the [Ranking] method; [None] =
          unbounded *)
}

val default_request :
  steps:Cddpd_sql.Ast.statement array array -> table:string -> request
(** Unconstrained request with auto-derived candidates, single-index
    configurations, empty C0. *)

type recommendation = {
  problem : Problem.t;
  solution : Solution.t;
  schedule : Cddpd_catalog.Design.t array;  (** design per step *)
}

val build_problem :
  ?reuse:Problem.Reuse.t ->
  ?statement_keys:string array ->
  Cddpd_engine.Database.t ->
  request ->
  Problem.t
(** Candidate generation + space enumeration + cost matrices, without
    solving — the entry point for callers that solve the same instance
    repeatedly or under their own policy (the serve loop, the k-selection
    examples).  [reuse] and [statement_keys] are passed through to
    {!Problem.build} (the incremental re-optimization path; see
    {!Reopt}).  Raises [Invalid_argument] on inconsistent requests. *)

val recommend :
  Cddpd_engine.Database.t -> request -> (recommendation, Optimizer.error) result
(** Build the problem from the database's statistics and solve it.  Raises
    [Invalid_argument] on inconsistent requests (e.g. [k] missing for a
    constrained method, unknown table). *)

val recommend_exn : Cddpd_engine.Database.t -> request -> recommendation
(** Like {!recommend}; raises [Failure] on solver errors. *)
