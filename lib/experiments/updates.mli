(** Update-fraction ablation (an extension beyond the paper's figures).

    Definition 1 covers "queries and updates", but the paper's experiments
    are query-only.  This experiment blends a growing fraction of UPDATE
    statements into W1 and re-runs the constrained advisor: as updates
    grow, index maintenance erodes lookup benefit, the advisor's schedules
    get cheaper to maintain (narrower or no indexes), and the gap between
    the k-constrained and unconstrained designs narrows. *)

type point = {
  update_fraction : float;
  constrained_cost : float;
  unconstrained_cost : float;
  constrained_changes : int;
  distinct_indexes : int;  (** distinct indexes in the k=2 schedule *)
  empty_steps : int;  (** steps scheduled with no index at all *)
}

type result = { points : point list }

val run : ?fractions:float list -> ?cell_jobs:int -> Session.t -> result
(** One {!Runner} cell per update fraction (default fractions: 0, 0.1,
    0.3, 0.5, 0.8); each blends its own workload and builds its own
    problem over the pre-resolved session statistics.  Every reported
    field is deterministic and independent of [cell_jobs]. *)

val print : result -> unit
