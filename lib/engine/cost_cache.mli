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

    {2 Row lifetime}

    The memo's callers cost workloads made of {e steps}, each a bag of
    statement clusters, and a session's {e live} steps are those of its
    latest build.  Each row counts the live steps that reference it.  A
    {!lookup} takes a reference for every cluster of the steps that
    arrive and then releases one for every cluster of the steps that
    depart; a row whose count reaches [0] is evicted.  So the memo holds
    exactly the rows of the live steps' clusters — the rows of a build
    that listed every step as arriving and every previous step as
    departing — and a lookup visits only the arriving steps' rows.

    A stored atom is the bit-identical float a fresh evaluation under
    the current statistics would produce: a row's key and a structure's
    identity ({!Cost_key.structure} with its {!Cost_key.structure_stats})
    are the atom's complete inputs, so rows need no statistics fence.  A
    structure whose [structure_stats] moved keeps its id and has its
    column cleared, so the memo's width follows the structures, not the
    refreshes; a visited row's missing atoms are evaluated from a
    binding under the current snapshot.  Rows are only sound while the
    cost-model parameters behind them are fixed.

    The tables are unsynchronised: use a memo from one domain at a time.

    {2 Observability}

    Each lookup adds its tallies to the [cost_cache.*] counters; see
    docs/OBSERVABILITY.md. *)

type t

type stats = {
  hits : int;
      (** atoms read from rows: each lookup adds its live rows times its
          structures, less its misses — every live row holds every
          requested atom afterwards, so that is the count of (row,
          structure) pairs a lookup did not evaluate, without walking
          the rows no arriving step references *)
  misses : int;
      (** atoms evaluated — one [cost_model.calls] each, so across a
          session's builds this equals their fill's what-if calls *)
  evictions : int;  (** rows dropped because no live step references them any more *)
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
  mutable composed : float array;
      (** the caller's costs composed from the row's atoms
          ({!set_composed}), e.g. one per configuration of its space;
          [[||]] when the row is made and again whenever one of its
          atoms is evaluated, so what the caller stored was composed from
          the atoms the row holds *)
}

val set_composed : row -> float array -> unit
(** Store the caller's composed costs in a row. *)

val create : unit -> t
(** An empty memo. *)

val stats : t -> stats

type clusters = {
  keys : Cost_key.id array;  (** distinct cluster cost identities *)
  reps : Cddpd_sql.Ast.statement array;  (** each cluster's representative statement *)
}
(** Clusters as {!lookup} takes them: a step's, or the arriving steps'
    together. *)

type lookup = {
  rows : row array;
      (** arriving cluster -> its row, every requested atom present *)
  ids : int array;  (** structure position -> session id, the rows' index *)
  recosted : int;  (** clusters with no row before this lookup *)
  fresh : bool array;
      (** structure position -> whether any row evaluated its atom *)
  live : int;
      (** rows held after this lookup: the distinct clusters of the live
          steps *)
}

val lookup :
  t ->
  Cost_model.params ->
  snapshot:(string, Table_stats.t) Hashtbl.t ->
  structures:Cddpd_catalog.Structure.t array ->
  structure_keys:string array ->
  arriving:clusters ->
  references:int array array ->
  departing:Cost_key.id array array ->
  lookup
(** The rows of the [arriving] clusters — the distinct clusters of the
    steps that arrive — for every structure of [structures] (keyed by
    [structure_keys]) under [snapshot], which must hold every table of
    the arriving representatives and of [structures].  Reuses each
    cluster's row if the memo has it, binds a new one otherwise, and
    evaluates only the missing atoms.  Then it takes one reference per
    entry of [references] (each arriving step's distinct clusters, as
    positions in [arriving]) and releases one per cluster of the
    [departing] steps (each given by the keys it arrived with), evicting
    the rows left unreferenced.  Counted in [cost_cache.rows_visited].

    The steps neither arriving nor departing are the kept ones: their
    rows are not visited, so they must already hold every atom of
    [structures] under [snapshot].  A caller that changes the structures
    or their statistics lists every step as arriving; a lookup whose
    structures are not the previous lookup's, or whose snapshot moved a
    structure's statistics, raises [Invalid_argument] if rows of kept
    steps remain, as does one whose departing cluster has no row. *)
