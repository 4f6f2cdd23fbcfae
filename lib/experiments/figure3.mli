(** Figure 3 — relative execution times of W1/W2/W3 under the constrained
    and unconstrained W1-based designs.

    Each workload is replayed through the real engine under both design
    schedules; "time" is total buffer-pool page accesses (execution plus
    index-build transitions), and everything is reported relative to W1
    under the unconstrained design, exactly as the paper's bar chart.

    Expected shape: W1 is somewhat slower (paper: 14%) under the
    constrained design; W2 and W3 are {e faster} under the constrained
    design than under the unconstrained one (paper: the unconstrained bars
    exceed the constrained ones by up to ~59%). *)

type measurement = {
  workload : string;
  unconstrained_io : int;
  constrained_io : int;
  relative_unconstrained : float;  (** vs. W1-under-unconstrained = 1.0 *)
  relative_constrained : float;
}

type result = {
  measurements : measurement list;  (** W1, W2, W3 *)
  baseline_io : int;  (** W1 under the unconstrained design *)
}

val run : ?cell_jobs:int -> Session.t -> result
(** Six {!Runner} cells (workload × schedule), each replaying against its
    own freshly built database, so the result is bit-identical at every
    [cell_jobs].  The Table 2 schedules the replays need come first, from
    {!Table2.run} with the same [cell_jobs]. *)

val print : result -> unit
