(** The what-if memo: per-(cluster, structure) atom rows.

    One row per statement cluster, keyed by the cluster's
    {!Cost_key.statement} cost identity, holding the cluster's
    representative bound once ({!Cost_model.bind}), its base-plan cost,
    and one {!Cost_model.atom} per structure, indexed by a session id
    assigned to each {!Cost_key.structure} identity on first sight.
    {!Cddpd_core.Problem.build} composes every configuration's cluster
    costs from these rows; a {!Cddpd_core.Problem.Reuse} session keeps
    one memo across builds, so a build evaluates only the atoms no
    earlier build evaluated for a cluster the previous build also had.

    A stored atom is the bit-identical float a fresh evaluation would
    produce: equal cluster and structure keys under unchanged statistics
    imply equal atoms.  Statistics changes are fenced by per-table
    fingerprints ({!Table_stats.fingerprint}): a lookup under a snapshot
    in which any table the previous lookup saw fingerprints differently
    flushes every row first.  Rows are also only sound while the
    cost-model parameters behind them are fixed.

    The tables are unsynchronised: use a memo from one domain at a time.

    {2 Observability}

    Each lookup adds its tallies to the [cost_cache.*] counters; see
    docs/OBSERVABILITY.md. *)

type t

type stats = {
  hits : int;  (** atoms read from rows *)
  misses : int;
      (** atoms evaluated — one [cost_model.calls] each, so across a
          session's builds this equals their fill's what-if calls *)
  evictions : int;  (** rows dropped because the latest lookup lacked their cluster *)
  generations : int;  (** flushes by the statistics fingerprint fence *)
}

type row = private {
  bound : Cost_model.bound;  (** the cluster's representative, bound once *)
  base : float;  (** {!Cost_model.base_plan}'s cost *)
  mutable access : float array;
      (** {!Cost_model.access_cost} of each atom, by session structure id *)
  mutable maintenance : float array;  (** each atom's maintenance term, by session id *)
}

val create : unit -> t
(** An empty memo. *)

val stats : t -> stats

type lookup = {
  rows : row array;  (** cluster id -> its row, every requested atom present *)
  ids : int array;  (** structure position -> session id, the rows' index *)
  recosted : int;  (** clusters with no row before this lookup *)
  fresh : bool array;
      (** structure position -> whether any cluster evaluated its atom *)
}

val lookup :
  t ->
  Cost_model.params ->
  snapshot:(string, Table_stats.t) Hashtbl.t ->
  structures:Cddpd_catalog.Structure.t array ->
  structure_keys:string array ->
  cluster_keys:string array ->
  reps:Cddpd_sql.Ast.statement array ->
  lookup
(** The rows of the clusters [cluster_keys] (distinct, with
    representatives [reps]) for every structure of [structures] (keyed
    by [structure_keys]).  Applies the statistics fence against
    [snapshot] — which must hold every table of [reps] — then reuses
    each cluster's row if the memo has it, binds a new one otherwise,
    and evaluates only the missing atoms.  Afterwards the memo holds
    exactly these clusters' rows. *)
