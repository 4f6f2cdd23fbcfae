(** The what-if memo: per-(cluster, structure) atom rows.

    One row per statement cluster, keyed by the cluster's hashed
    {!Cost_key.statement} cost identity ({!Cost_key.id}, so a lookup
    reads the stored hash instead of re-hashing the key), holding the
    cluster's representative bound once ({!Cost_model.bind}), its
    base-plan cost, and one {!Cost_model.atom} per structure, indexed by
    a session id assigned to each {!Cost_key.structure} identity on
    first sight.
    {!Cddpd_core.Problem.build} composes every configuration's cluster
    costs from these rows; a {!Cddpd_core.Problem.Reuse} session keeps
    one memo across builds, so a build evaluates only the atoms no
    earlier build evaluated for a cluster the previous build also had.

    A stored atom is the bit-identical float a fresh evaluation under
    the current statistics would produce: a row's key and a structure's
    identity ({!Cost_key.structure} with its {!Cost_key.structure_stats})
    are the atom's complete inputs, so rows need no statistics fence.  A
    structure whose [structure_stats] moved keeps its id and has its
    column cleared, so the memo's width follows the structures, not the
    refreshes; a kept row's missing atoms are evaluated from a binding
    under the current snapshot.  Rows are only sound while the
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
  generations : int;
      (** always [0]: the memo has no statistics fence to count.  The
          field stays because perfbench's serve benchmark still prints
          it; it goes when that benchmark is next changed. *)
}

type row = private {
  mutable bound : Cost_model.bound;
      (** the cluster's representative, bound when the row was made or,
          later, when it last needed an atom *)
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
  cluster_keys:Cost_key.id array ->
  reps:Cddpd_sql.Ast.statement array ->
  lookup
(** The rows of the clusters [cluster_keys] (distinct, with
    representatives [reps]) for every structure of [structures] (keyed
    by [structure_keys]) under [snapshot], which must hold every table
    of [reps] and [structures].  Reuses each cluster's row if the memo
    has it, binds a new one otherwise, and evaluates only the missing
    atoms.  Afterwards the memo holds exactly these clusters' rows. *)
