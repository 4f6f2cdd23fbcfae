(** Memoized what-if costing.

    A cache in front of {!Cost_model}: [EXEC(S, C)] results are memoized
    per (statement cost-identity, design) under the keys of {!Cost_key} —
    statements with the same shape and selectivities share an entry, which
    is where most of the hit rate comes from — and structure build costs
    (the expensive part of [TRANS]) are memoized per structure, so a
    transition matrix over [n] configurations pays cost-model work once
    per {e distinct structure} instead of once per ordered configuration
    pair.

    It has two users.  A {!Cddpd_core.Problem.Reuse} session keeps one
    as the TRANS structure-build memo (its EXEC fill is clustered by
    cost identity, so statement entries could never hit there), and the
    serve loop's probation check costs each window's statements through
    one.

    A cache is only sound while the cost-model parameters behind it are
    fixed: keys identify the statement's cost inputs (including a
    table-statistics fingerprint) and the design, not the params.  Cached
    results are the {e bit-identical} floats the uncached computation
    produces — memoization never changes an answer, only whether
    {!Cost_model.statement_cost} runs (so the [cost_model.calls] counter
    counts the atoms of misses only when a cache is in front).

    {2 Eviction}

    Statement entries live in two generations of at most [capacity]
    entries each.  Inserting into a full current generation discards the
    previous generation wholesale and starts a new one — a hit in the old
    generation re-promotes the entry first, so hot entries survive
    rotation and eviction stays O(1) amortised with no per-entry
    bookkeeping.  Structure build costs are never evicted (there are at
    most as many as candidate structures).

    {2 Domains}

    The hash tables are unsynchronised: use a cache from one domain at a
    time.

    {2 Observability}

    {!publish_obs} adds the not-yet-published part of a cache's tallies
    to the [cost_cache.hits] / [cost_cache.misses] /
    [cost_cache.evictions] counters; see docs/OBSERVABILITY.md. *)

type t

type stats = { hits : int; misses : int; evictions : int; generations : int }
(** [generations] counts statement-store rotations: each one discarded a
    full previous generation and started a new current one.  A cache that
    never rotated has [generations = 0]. *)

val create : ?capacity:int -> unit -> t
(** A fresh, empty, enabled cache.  [capacity] (default [65536]) bounds
    each statement-entry generation.  Raises [Invalid_argument] if
    [capacity < 1]. *)

val disabled : t
(** The pass-through cache: every operation delegates straight to
    {!Cost_model}, nothing is stored, stats stay zero. *)

val stats : t -> stats

val publish_obs : t -> unit
(** Add this cache's tallies to the global [cost_cache.*] counters;
    repeated calls publish only the increment since the previous call. *)

val invalidate_builds : t -> unit
(** Drop every memoized structure build cost.  Structure build keys
    ({!Cost_key.structure}) do {e not} embed table statistics, so a cache
    that outlives a statistics change (data loads, DML) must be
    explicitly invalidated before its build memo is trusted again —
    statement entries self-invalidate (their keys embed a stats
    fingerprint) and are left alone.  No-op on {!disabled}. *)

(** {1 Cached costing} *)

val statement_cost :
  t ->
  Cost_model.params ->
  Table_stats.t ->
  design:Cddpd_catalog.Design.t ->
  ?design_key:string ->
  Cddpd_sql.Ast.statement ->
  float
(** [EXEC(S, C)], computing via {!Cost_model.statement_cost} on a miss.
    [design_key] must be [Cost_key.design design] when supplied (callers
    costing many statements under one design precompute it once). *)

val structure_build_cost :
  t -> Cost_model.params -> Table_stats.t -> Cddpd_catalog.Structure.t -> float
(** Memoized {!Cost_model.structure_build_cost}. *)
