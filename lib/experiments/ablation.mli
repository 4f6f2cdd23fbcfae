(** Ablation — all solvers side by side (beyond the paper's figures).

    For a range of change budgets, compares every solver's schedule cost
    (Definition 1's objective), change count and runtime, plus the
    reactive online tuner and the best static design (k-aware with k = 0)
    as reference points.  Quantifies: (a) how close the heuristics get to
    the k-aware optimum, (b) where ranking becomes impractical, and
    (c) when the hybrid rule picks the right engine. *)

type entry = {
  method_label : string;
  k : int option;
  cost : float;
  changes : int;
  elapsed : float;
  optimality_gap : float;  (** (cost - optimal cost at this k) / optimal *)
}

type result = { entries : entry list; unconstrained_cost : float }

val run : ?ks:int list -> ?cell_jobs:int -> Session.t -> result
(** {!Runner} cells — the unconstrained baseline, one optimal
    (gap-reference) cell and one cell per constrained method for each k,
    and the online tuner — over the session's (pre-forced) problem graph.
    Default ks: 0, 2, 6, 10.  Every field but the [elapsed] wall-clock
    times is independent of [cell_jobs]. *)

val print : result -> unit
