(** Table 2 — dynamic workloads and recommended physical designs.

    Runs the unconstrained optimizer and the constrained (k = 2) k-aware
    optimizer on workload W1 and tabulates, per 500-query segment, the mix
    letters of W1/W2/W3 and the design each optimizer assigns — the
    reproduction of the paper's Table 2.  The expected shape: the
    unconstrained design tracks every minor shift, the k = 2 design only
    the two major ones. *)

type row = {
  query_range : string;  (** e.g. ["1-500"] *)
  w1_mix : string;
  design_unconstrained : string;
  design_k2 : string;
  w2_mix : string;
  w3_mix : string;
}

type result = {
  rows : row list;
  unconstrained : Cddpd_core.Solution.t;
  constrained : Cddpd_core.Solution.t;
  schedule_unconstrained : Cddpd_catalog.Design.t array;
  schedule_k2 : Cddpd_catalog.Design.t array;
}

val run : ?cell_jobs:int -> Session.t -> result
(** Two {!Runner} solver cells, unconstrained and k-aware at k = 2, over
    the session's (pre-forced) problem graph.  Every field but the
    solutions' [elapsed] wall-clock times is independent of [cell_jobs]. *)

val print : result -> unit
