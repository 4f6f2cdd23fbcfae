(** Shortest-path ranking (Section 5 of the paper).

    Enumerates the source-to-sink paths of a staged DAG in ascending cost
    order.  The implementation is best-first search with the exact
    cost-to-go as heuristic ({!Staged_dag.cost_to_go}), which emits paths
    in exactly nondecreasing total-cost order — the behaviour the paper
    requires from the path-deletion algorithm it cites.

    The paper's constrained optimizer stops at the first ranked path with
    at most [k] changes; {!solve_constrained} packages that stopping
    rule.

    Invariants: the heuristic [h(s, j)] (exact cheapest completion from
    node [j] of stage [s]) makes every popped state's f-value the true
    cost of the best completion of its prefix, so (1) completed paths pop
    in nondecreasing cost order and (2) the first accepted path is
    optimal among ≤[k]-change paths.  The price is memory: the frontier
    can hold one partial per (prefix), and a large [k]-gap between the
    unconstrained optimum and the first feasible path makes the rank — and
    the queue — blow up; that worst case is exactly the paper's argument
    for the k-aware DP.

    {2 Scaling}

    {!enumerate} and {!solve_constrained} run one search.  It keeps its
    frontier in a growable arena (node, stage, accumulated cost, parent
    slot) with a binary heap holding arena ids only, so per-partial memory
    is a few words and independent of path length.  Equal f-values pop in
    insertion order.  Two budgets bound {!solve_constrained} — [max_paths] (complete
    paths examined) and [max_queue] (frontier size) — and an optional
    [upper_bound] (cost of any known feasible ≤ [k]-changes path, e.g.
    the merging heuristic's) discards partials whose f-value exceeds the
    bound at insertion.  A ranked prefix that beats a feasible path's
    cost is never discarded, so the bound changes neither the accepted
    path nor its rank (property-tested; the bound carries a 1e-9 relative
    slack so float rounding can never cut the optimum).

    Observability: pops, emitted complete paths, rejected (over-budget)
    paths and bound-discarded partials feed the
    [advisor.ranking.nodes_expanded], [advisor.ranking.paths_emitted],
    [advisor.ranking.paths_pruned] and [advisor.ranking.partials_pruned]
    counters; each solve records its frontier high-water mark in the
    [advisor.ranking.queue_peak] histogram and runs inside an
    [advisor.ranking] span. *)

val enumerate : Staged_dag.t -> (float * int array) Seq.t
(** All source-to-sink paths, lazily, in nondecreasing cost order, with
    equal costs in insertion order.  The same search as
    {!solve_constrained} without budgets or bound: its [n]-th element is
    the path that search examines as rank [n].  The sequence is
    persistent (memoized), so it can be traversed more than once. *)

type give_up_reason =
  | Space_exhausted  (** every path ranked; none had ≤ [k] changes *)
  | Path_budget  (** [max_paths] complete paths examined *)
  | Queue_budget  (** the frontier hit [max_queue] *)

val reason_to_string : give_up_reason -> string

type gave_up = {
  examined : int;  (** complete paths examined before giving up *)
  queue_peak : int;  (** frontier high-water mark of the attempt *)
  reason : give_up_reason;
}

val solve_constrained :
  Staged_dag.t ->
  k:int ->
  initial:int option ->
  ?upper_bound:float ->
  ?max_paths:int ->
  ?max_queue:int ->
  unit ->
  [ `Found of float * int array * int | `Gave_up of gave_up ]
(** Rank paths until one has at most [k] changes.  [`Found (cost, path,
    rank)] reports the 1-based rank of the accepted path.  [`Gave_up g]
    distinguishes why the search stopped: the space was exhausted (no
    feasible path exists), [max_paths] (default 1_000_000) complete paths
    were examined, or the frontier hit [max_queue] (default unbounded).
    [upper_bound] must be the cost of a feasible ≤ [k]-changes path of
    the same instance; it bounds the frontier without changing the
    result. *)
