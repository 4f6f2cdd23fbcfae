(** Unified entry point to every solver in the paper.

    All solvers return a {!Solution.t} whose [cost] and [changes] are
    recomputed from the instance, so heuristic solvers cannot misreport.

    The exact constrained solvers ([Kaware], [Ranking], and [Hybrid]'s
    k-aware fall-back) are branch-and-bound seeded: the merging heuristic
    refined from the unconstrained optimum is always a feasible
    ≤ [k]-changes schedule, and its cost is passed as the solvers'
    [upper_bound].  Pruning is exact (see {!Cddpd_graph.Kaware.solve} and
    {!Cddpd_graph.Ranking.solve_constrained}), so the returned schedules
    are unchanged — the bound only cuts work. *)

type error =
  | Infeasible  (** no schedule satisfies the change budget *)
  | Ranking_gave_up of Cddpd_graph.Ranking.gave_up
      (** ranking stopped without finding a schedule within the budget —
          the payload says whether the space was exhausted or which budget
          ([max_paths] / [max_queue]) was hit, and how many paths were
          examined (the paper's worst case) *)

val solve :
  Problem.t ->
  method_name:Solution.method_name ->
  ?k:int ->
  ?max_paths:int ->
  ?max_queue:int ->
  ?upper_bound:float ->
  unit ->
  (Solution.t, error) result
(** Run one solver.  [k] is required by every method except
    [Unconstrained] (raises [Invalid_argument] when missing).
    [max_paths] (default 1_000_000) and [max_queue] (default unbounded)
    bound the [Ranking] enumeration.

    [upper_bound] warm-starts the exact solvers' branch-and-bound: it
    must be the cost of some feasible ≤ [k]-changes schedule of this
    instance (serve passes the incumbent's hold-at-the-current-design
    cost).  The effective seed is the tighter of this bound and the
    merging seed ([reopt.warm_start_bound_used] counts when the caller's
    bound won); pruning stays exact, so a valid bound never changes the
    returned schedule — only how much work finding it takes.

    None of these knobs changes the returned schedule.  Elapsed
    wall-clock time is recorded in the solution. *)

val unconstrained : Problem.t -> Solution.t
(** Convenience: the sequence-graph optimum. *)
