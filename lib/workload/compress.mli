(** Workload compression: clustering by a caller-supplied identity key.

    CoPhy-style workload compression groups statements whose what-if
    costs are provably equal, so a cost matrix pays one evaluation per
    {e cluster} instead of one per statement.  This module implements the
    generic, engine-free half of that: partition an array by an arbitrary
    key, given its hash and equality.  The key that makes the partition
    {e exact} — the cost identity of [Cddpd_engine.Cost_key], under
    which equal keys imply equal cost under every design — is supplied
    by the caller ({!Cddpd_core.Problem.build}, serve, the pruner); this
    library never sees the cost model.

    Clusters are numbered by first occurrence, and each cluster's
    representative is its first member, so the clustering is
    deterministic and order-stable. *)

type t = {
  cluster_of : int array;  (** item index -> cluster id *)
  representatives : int array;
      (** cluster id -> index of its first (representative) item *)
  counts : int array;  (** cluster id -> number of members *)
}

val cluster : key:('a -> string) -> 'a array -> t
(** [cluster ~key items] partitions [items] by [key].  [key] is called
    exactly once per item, in index order. *)

val cluster_keys : string array -> t
(** [cluster_keys keys] partitions by the precomputed key array itself:
    [cluster_keys (Array.map key items) = cluster ~key items], and
    [cluster_keys = cluster_by ~hash:Hashtbl.hash ~equal:String.equal].
    For callers that already paid the keying pass. *)

val cluster_by : hash:('k -> int) -> equal:('k -> 'k -> bool) -> 'k array -> t
(** [cluster_by ~hash ~equal keys] partitions by the key array itself,
    [equal] deciding membership and [hash] only placing keys in the
    table, so it must agree with [equal].  Serve and
    {!Cddpd_core.Problem.build} cluster hashed cost identities
    ([Cddpd_engine.Cost_key.id]) through it, reading each key's stored
    hash instead of re-hashing the key string; for every [hash] that
    agrees with [equal], the clustering is the one {!cluster_keys} gives
    the equivalent string keys. *)

val n_clusters : t -> int
