(** Staged DAGs — the "sequence graphs" of Agrawal, Chu and Narasayya.

    A staged DAG has [n_stages] columns of [n_nodes] nodes each, a source
    before stage 0 and a sink after the last stage.  Every node of stage
    [s] has an edge to every node of stage [s+1].

    In the physical-design instantiation, a node [(s, j)] is "execute
    statement [s] under configuration [j]" with node cost [EXEC(S_s,C_j)],
    and edge costs are [TRANS(C_i, C_j)] — the same at every stage, so one
    [n_nodes × n_nodes] matrix describes every stage boundary.  The costs
    are held in flat arrays the solvers' inner loops index directly. *)

type t = private {
  n_stages : int;
  n_nodes : int;
  exec : float array;  (** node costs, stage-major: [stage * n_nodes + node] *)
  trans : float array;  (** edge costs, [src * n_nodes + dst], every stage *)
  source : float array;  (** source-edge cost per node *)
  sink : float array;  (** sink-edge cost per node *)
}

val of_matrices :
  exec:float array array ->
  trans:float array array ->
  ?source:float array ->
  ?sink:float array ->
  unit ->
  t
(** Build a graph from cost matrices: [exec.(s).(j)] is the node cost of
    [(s, j)], [trans.(i).(j)] the edge cost from node [i] to node [j] at
    every stage boundary, [source]/[sink] the per-node source and sink
    edge costs (default zero).  The matrices are copied into the flat
    record.  Raises [Invalid_argument] on empty or ragged input. *)

val path_cost : t -> int array -> float
(** Total cost of a source-to-sink path visiting the given node per stage.
    Raises [Invalid_argument] on a wrong-length path. *)

val path_changes : t -> initial:int option -> int array -> int
(** Number of stage boundaries where the node changes; with [initial =
    Some j], a stage-0 node different from [j] also counts. *)

val shortest_path : t -> float * int array
(** The minimum-cost source-to-sink path, by dynamic programming over
    stages in O(n_stages * n_nodes^2) time. *)

val cost_to_go : t -> float array
(** The exact unconstrained cost-to-go, flat and stage-major:
    [(cost_to_go t).(s * n_nodes + j)] is the cheapest completion from
    node [j] of stage [s] to the sink — excluding node [j]'s own cost,
    including the sink edge.  Computed by one backward O(n_stages *
    n_nodes^2) pass.  This is the admissible heuristic shared by
    {!Ranking} and the {!Kaware.solve} bound pruner: it never
    overestimates the completion cost of any path, constrained or not. *)
