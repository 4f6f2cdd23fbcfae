(** k-aware sequence graphs (Section 3 of the paper).

    The staged DAG is replicated into [k+1] layers; a path occupies layer
    [l] after [l] node changes, so paths through the layered graph are
    exactly the paths of the base graph with at most [k] changes.  The
    layered graph is never materialised: the dynamic program below indexes
    states by (stage, layer, node), giving the paper's O(k n 2^2m) bound
    for [2^m] configurations per stage.

    {2 Layer semantics}

    Layer [l] means "[l] design changes consumed so far".  Staying on the
    same node across a stage boundary keeps the layer; switching nodes
    moves diagonally from layer [l] to [l+1] — so edges never descend, and
    a state [(s, l, j)] encodes the cheapest way to execute the first
    [s+1] steps ending in configuration [j] with exactly [l] changes.
    With [initial = Some j0], starting anywhere other than [j0] enters at
    layer 1 instead of 0 (the first deviation from the deployed design is
    itself a change).  The answer minimises over {e all} layers at the
    sink, which is what makes the constraint "at most [k]", not
    "exactly [k]".

    {2 Scaling}

    {b Branch-and-bound pruning} ([upper_bound]) lets the DP handle
    large design spaces (see docs/PERFORMANCE.md): given the cost of any
    known feasible ≤ [k]-changes path (e.g. the {!Cddpd_core.Merging}
    heuristic's), every DP state whose distance plus exact unconstrained
    cost-to-go ({!Staged_dag.cost_to_go}) exceeds the bound is skipped.
    The heuristic is admissible, so the surviving DP values, the optimum
    and the reconstructed path are identical to the unpruned run
    (property-tested; the bound carries a 1e-9 relative slack so float
    rounding can never cut the optimum).  An [upper_bound] below the true
    constrained optimum voids that guarantee — always derive it from a
    feasible path of the same instance.

    The DP runs on the calling domain: splitting each stage's
    destinations across domains was slower, or no faster, at every
    committed workload's size (docs/PERFORMANCE.md, "One domain").

    {2 Observability}

    Each solve runs inside an [advisor.kaware] trace span and reports
    [advisor.kaware.nodes_expanded] (source states relaxed),
    [advisor.kaware.edges_relaxed] (relaxation attempts) and
    [advisor.kaware.states_pruned] (reachable states cut by the bound).
    The accounting pass runs only when instrumentation is enabled — the
    relaxation loops themselves carry no counters. *)

val solve :
  ?upper_bound:float ->
  Staged_dag.t ->
  k:int ->
  initial:int option ->
  (float * int array) option
(** [solve g ~k ~initial] is the minimum-cost source-to-sink path with at
    most [k] node changes (counted as in {!Staged_dag.path_changes}:
    [initial = Some j] makes a stage-0 node other than [j] consume a
    change).  [None] if no such path exists (possible only when [k = 0]
    conflicts with infinite costs, or [k < 0]).  Raises
    [Invalid_argument] if [initial] is out of range.

    [upper_bound] enables branch-and-bound pruning and must be the cost
    of a feasible ≤ [k]-changes path of [g]; it does not change the
    returned [(cost, path)]. *)
