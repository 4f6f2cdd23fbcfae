(** Workload-drift detection over cost-identity histograms.

    The serve loop needs to know when the live workload has changed
    *in a way that matters to the advisor*.  Comparing raw SQL text is
    too fine (the paper's workloads draw predicate constants at random,
    so almost every statement is textually unique) and comparing only
    predicate columns ({!Cddpd_workload.Segmenter}) is too coarse once
    selectivities shift.  This module buckets statements by their
    {!Cddpd_engine.Cost_key} cost identity — exactly the equivalence the
    what-if memo uses: two statements share a bucket iff the cost model
    treats them identically under every design — and compares adjacent
    windows by the L1 distance of their bucket-frequency histograms.

    Distances live in [\[0, 2\]]: 0 = identical histograms, 2 = disjoint
    support (a complete workload change). *)

type profile = (string * float) list
(** Relative frequency per cost-identity key, keyed ascending.  Frequencies
    sum to 1 for a non-empty window; the empty window has the empty
    profile. *)

val profile :
  stats:Cddpd_engine.Table_stats.t -> Cddpd_sql.Ast.statement array -> profile
(** Histogram one window of statements under the given table statistics
    (the statistics feed the selectivity component of the key, so a data
    shift that changes selectivities also registers as drift).
    Implemented as one {!Cddpd_workload.Compress} clustering pass over
    the window's keys — the same pass serve ingest shares with problem
    building via {!profile_of_clustering}. *)

val profile_of_clustering :
  keys:Cddpd_engine.Cost_key.id array -> Cddpd_workload.Compress.t -> profile
(** The profile of a window whose hashed cost-identity keys and
    clustering the caller already computed
    ([Compress.cluster_by ~hash:Cost_key.id_hash ~equal:Cost_key.id_equal keys]).
    Equal to [profile] on the same window: serve computes each window's
    keys once and feeds both drift detection and the incremental problem
    build from that single cost-identity pass.  Profiles stay keyed by
    the key strings ({!Cddpd_engine.Cost_key.id}'s [key]), so
    {!distance} sums its floats in key order. *)

val distance : profile -> profile -> float
(** L1 distance between two profiles, in [\[0, 2\]]. *)

val default_threshold : float
(** 0.5 — the same order as {!Cddpd_workload.Segmenter}'s change-point
    threshold: half the probability mass moved buckets. *)

val drifted : ?threshold:float -> profile -> profile -> bool
(** [distance a b > threshold].  A non-positive [threshold] therefore
    declares drift on any difference at all — the knob that turns the
    serve loop's drift-gated re-optimization into an every-window one. *)
