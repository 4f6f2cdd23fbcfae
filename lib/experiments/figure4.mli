(** Figure 4 — optimizer runtimes relative to the unconstrained optimizer.

    Times the optimal k-aware solver and the sequential-merging heuristic
    for a range of change budgets k, reporting each as a percentage of the
    unconstrained (plain sequence graph) solve time, alongside each
    solver's (deterministic) schedule cost.

    Expected shape: the k-aware curve grows roughly linearly in k (its
    graph has k+1 layers); the merging curve {e decreases} with k (fewer
    merge steps are needed), motivating the paper's hybrid suggestion. *)

type point = {
  k : int;
  kaware_relative : float;  (** k-aware time / unconstrained time *)
  merging_relative : float;
  kaware_seconds : float;
  merging_seconds : float;
  kaware_cost : float;  (** optimal constrained schedule cost at this k *)
  merging_cost : float;  (** the heuristic's cost ([infinity] if it failed) *)
}

type result = {
  points : point list;
  unconstrained_seconds : float;
  unconstrained_cost : float;
  repeats : int;  (** timing repetitions per point *)
}

val run : ?ks:int list -> ?repeats:int -> Session.t -> result
(** {!Runner} cells — the unconstrained baseline, then one k-aware and one
    merging cell per k — over the session's (pre-forced) problem graph,
    on one domain: the cells are timings, and cells sharing cores skew
    them.
    Defaults: k in 2, 4, ..., 18 (the paper's x-axis) and 32 repeats per
    timing (solver runtimes are microseconds at this instance size, so
    each sample is itself a mean over a batch).  The cost fields are
    deterministic; the wall-clock fields are timings and run-to-run
    noisy. *)

val print : result -> unit
