(** Workload-drift detection over cost-identity histograms.

    The serve loop needs to know when the live workload has changed
    *in a way that matters to the advisor*.  Comparing raw SQL text is
    too fine (the paper's workloads draw predicate constants at random,
    so almost every statement is textually unique) and comparing only
    predicate-column frequencies is too coarse once selectivities
    shift.  This module buckets statements by their
    {!Cddpd_engine.Cost_key} cost identity — exactly the equivalence the
    what-if memo uses: two statements share a bucket iff the cost model
    treats them identically under every design — and compares adjacent
    windows by the L1 distance of their bucket-frequency histograms.

    Distances live in [\[0, 2\]]: 0 = identical histograms, 2 = disjoint
    support (a complete workload change). *)

type profile = private {
  counts : int Cddpd_engine.Cost_key.Id_tbl.t;
      (** member count per cost identity; every count is positive *)
  size : int;  (** statements in the window: the sum of [counts] *)
}
(** One window's cost-identity histogram, kept as exact counts rather
    than frequencies.  The empty window has size 0 and no counts. *)

val profile_of_clustering :
  keys:Cddpd_engine.Cost_key.id array -> Cddpd_workload.Compress.t -> profile
(** The profile of a window whose hashed cost-identity keys and
    clustering the caller already computed
    ([Compress.cluster_by ~hash:Cost_key.id_hash ~equal:Cost_key.id_equal keys]):
    each cluster's representative id with the cluster's size.  Serve
    computes each window's keys once and feeds both drift detection and
    the incremental problem build from that single cost-identity pass.
    The statistics the keys were computed under feed their selectivity
    component, so a data shift that changes selectivities also registers
    as drift. *)

val distance : profile -> profile -> float
(** L1 distance between the two windows' relative frequencies, in
    [\[0, 2\]]: [Σ |ca·nb − cb·na| / (na·nb)] over the ids of either
    profile ([ca] an id's count in a window of [na] statements, 0 if
    absent), matched by {!Cddpd_engine.Cost_key.id_equal}.  The sum is
    taken in integers and divided once, so the result is the exact
    rational rounded once: symmetric, blind to the order ids are visited
    in and to how keys are encoded.  An empty window is at 0 from another
    empty one and at 1 (all of the other's mass) from any other. *)

val default_threshold : float
(** 0.5: a quarter of the probability mass moved buckets.  Every mix
    change in the paper's workloads moves more.  Measured on predicate
    columns alone, a minor shift (Table 1's mix A to B) is at 0.6 and a
    major one (A to C) at 1.2, and cost identities only split those
    buckets further, which never lowers an L1 distance.  Serve declares
    drift when {!distance} exceeds its threshold, so a non-positive one
    declares drift on any difference at all — the knob that turns the
    serve loop's drift-gated re-optimization into an every-window one. *)
