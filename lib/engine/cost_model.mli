(** The what-if cost model: EXEC, TRANS and SIZE.

    This is the engine's stand-in for a commercial optimizer's what-if
    interface.  Given table statistics and a hypothetical physical design,
    it estimates the cost of executing a statement ([EXEC(S, C)]), of
    changing the physical design ([TRANS(Ci, Cj)]), and the size of a
    design ([SIZE(C)]) — the three quantities Definition 1 of the paper is
    stated in.  Costs are in page-I/O-equivalent units. *)

type params = {
  page_io : float;  (** cost of touching one page (the unit: 1.0) *)
  row_cpu : float;  (** per-row predicate evaluation / copying *)
  rid_fetch : float;  (** heap page fetch per qualifying rid *)
  sort_cpu : float;  (** per row·log2(rows) during index build *)
  drop_cost : float;  (** dropping one index (catalog-only) *)
  build_write_ratio : float;
      (** write cost of one index page relative to a read *)
  leaf_fill : float;  (** assumed leaf fill factor of a built index *)
}

val default_params : params
(** page_io 1.0, row_cpu 0.001, rid_fetch 1.0, sort_cpu 0.0002,
    drop_cost 1.0, build_write_ratio 1.0, leaf_fill 0.9. *)

(** {1 Index size and shape} *)

val index_size_pages : params -> rows:int -> Cddpd_catalog.Index_def.t -> int
(** Estimated total page count (leaves + internal levels + root). *)

val index_size_bytes : params -> rows:int -> Cddpd_catalog.Index_def.t -> int

val index_height : params -> rows:int -> Cddpd_catalog.Index_def.t -> int
(** Estimated levels, root to leaf inclusive. *)

val view_rows : Table_stats.t -> Cddpd_catalog.View_def.t -> int
(** Estimated group count (distinct values of the grouping column). *)

val structure_size_bytes :
  params -> stats:Table_stats.t -> Cddpd_catalog.Structure.t -> int

val design_size_bytes :
  params -> stats_of:(string -> Table_stats.t) -> Cddpd_catalog.Design.t -> int
(** SIZE(C): total bytes of all structures in the design. *)

(** {1 EXEC} *)

val choose_plan :
  params -> Table_stats.t -> Cddpd_catalog.Design.t -> Cddpd_sql.Ast.select -> Plan.t
(** Pick the cheapest access path for the select under the design:
    the full scan, or any index whose leading columns are bound by equality
    predicates (optionally followed by one range-bound column), or whose
    key covers the select.  A fold over the design's {!atom}s that counts
    no what-if calls: it is the executor's planner.  The plan holds the
    path's shape and the estimator's floats, never a literal, and the
    {!Cost_key} pins every input they read: a plan chosen for one
    statement is the plan of every statement with the same key. *)

val choose_agg_plan :
  params ->
  Table_stats.t ->
  Cddpd_catalog.Design.t ->
  table:string ->
  group_by:string ->
  where:Cddpd_sql.Ast.predicate list ->
  Plan.t
(** Access path for an aggregate query: a matching materialized view (probe
    or scan) when the design has one and every predicate is an equality on
    the grouping column, else a full scan with on-the-fly aggregation.
    Like {!choose_plan}, an uncounted fold over the design's atoms. *)

val agg_scan_plan : params -> Table_stats.t -> group_by:string -> Plan.t
(** The structure-free plan of an aggregate: a full scan that hashes
    groups on the fly, with its estimates.  It is {!choose_agg_plan}'s
    plan under an empty design, and the plan the executor runs and
    reports when a memoized view plan meets an aggregate the view does
    not answer. *)

val select_cost :
  params -> Table_stats.t -> Cddpd_catalog.Design.t -> Cddpd_sql.Ast.select -> float
(** Cost of the chosen plan. *)

val statement_cost :
  params -> Table_stats.t -> Cddpd_catalog.Design.t -> Cddpd_sql.Ast.statement -> float
(** EXEC(S, C) for one statement: plan cost for selects; heap append plus
    per-index maintenance for inserts; find-plan cost plus per-affected-row
    writes and index maintenance for DELETE/UPDATE (indexes make updates
    cheaper to find but dearer to maintain — the classic trade-off the
    dynamic advisor weighs).  {!bind} followed by {!bound_cost}. *)

(** {1 Bound statements}

    Costing one statement under many designs (the EXEC fill of
    {!Cddpd_core.Problem.build}) repeats every design-independent step:
    the per-predicate selectivities, each a histogram lookup, and the
    column sets plan choice tests each index against.  A {e bound}
    statement holds them, computed once; {!bound_cost} then costs it under
    any design.  {!statement_cost} and {!choose_plan} are {!bind} followed
    by the bound form, so there is one formula path and the results are
    bit-identical whichever way a caller goes. *)

type bound
(** A statement together with the statistics snapshot it was bound under
    and its design-independent derivations.  Immutable: safe to share
    across domains. *)

val bind : Table_stats.t -> Cddpd_sql.Ast.statement -> bound
(** Compute the statement's selectivities (in WHERE order) under the
    statistics, and the rest of what plan choice reads from it. *)

val bound_cost : params -> bound -> Cddpd_catalog.Design.t -> float
(** EXEC(S, C) of a bound statement: [bound_cost params (bind stats s) d]
    is [statement_cost params stats d s], bit for bit.  It evaluates one
    {!atom} per structure of the design (each one [cost_model.calls]) and
    {!compose}s them. *)

(** {1 Atoms}

    A statement's cost under a design is fixed by its per-structure
    {e atoms} (CoPhy's atomic configurations): the cheapest access path
    through each structure and the maintenance each structure adds per
    affected row of a write.  Every plan choice and EXEC formula of this
    module is a fold over atoms: start from {!base_plan}, replace the
    incumbent only with a strictly cheaper atom (so equal costs keep the
    earlier structure in design order), and sum the maintenance terms in
    [Design.fold] order, indexes before views.  A caller that keeps the
    atoms of many structures can therefore cost any design made of them
    by composition — a few float operations per structure — and get the
    bit-identical float {!bound_cost} returns. *)

type atom = {
  access : Plan.t option;
      (** the cheapest plan through the structure: an index seek (which
          wins a tie with the covering leaf scan) or covering scan for a
          SELECT or a DELETE/UPDATE victim search, a view probe or scan for
          an aggregate it answers; [None] when the structure cannot serve
          the statement (another table, or the wrong kind) *)
  maintenance : float;
      (** per-affected-row maintenance for INSERT/DELETE/UPDATE on the
          structure's table; [0.0] for reads, which compute none, and for
          structures on other tables *)
}

val atom : params -> bound -> Cddpd_catalog.Structure.t -> atom
(** The statement's atom for one structure.  One atom is one what-if
    evaluation: each call counts one [cost_model.calls]. *)

val access_cost : atom -> float
(** The atom's access cost; [infinity] when it has no plan. *)

val base_plan : params -> bound -> Plan.t
(** The structure-free plan every fold starts from: a heap scan (with
    on-the-fly aggregation for an aggregate). *)

val compose : params -> bound -> access:float -> maintenance:float -> float
(** EXEC of the bound statement given its chosen access cost and its
    summed maintenance: the access cost for reads; one heap write plus
    maintenance for an INSERT; for a DELETE the victim search plus one
    write and the maintenance per affected row, doubled for an UPDATE. *)

(** {2 Atom ingredients}

    The per-structure plans and terms an atom is made of, each formula in
    exactly one place.  {!atom} checks the structure's table and kind
    first; these do not. *)

val index_seek_plan : params -> bound -> Cddpd_catalog.Index_def.t -> Plan.t option
(** An index seek on the WHERE clause: an equality-bound key prefix,
    optionally followed by one range-bound column, as {!Filter.seek}
    decides them.  [None] when that rule uses no predicate. *)

val index_only_scan_plan : params -> bound -> Cddpd_catalog.Index_def.t -> Plan.t option
(** A covering leaf-level scan, when the index key holds every column the
    statement references ([None] for [*] projections and DML). *)

val view_plan : params -> bound -> Cddpd_catalog.View_def.t -> Plan.t option
(** A view probe (a group equality, by {!Filter.seek} on the grouping
    column) or view scan, when the statement is an aggregate the view
    answers. *)

val view_answers :
  group_by:string -> where:Cddpd_sql.Ast.predicate list -> Cddpd_catalog.View_def.t -> bool
(** Whether the view answers the aggregate: it groups by [group_by] and
    every predicate is an equality on that column.  The one rule for
    both the planner's {!view_plan} and the executor's check of a
    memoized view plan. *)

val maintenance_term : params -> bound -> Cddpd_catalog.Structure.t -> float
(** The structure's per-affected-row maintenance: a root-to-leaf update
    for an index, a lookup plus a row rewrite for a view. *)

(** {1 TRANS} *)

val structure_build_cost : params -> Table_stats.t -> Cddpd_catalog.Structure.t -> float
(** Building the structure: scan the table, then sort and write the
    index pages or aggregate and write the view pages — the
    per-structure term {!transition_cost} sums. *)

val transition_cost :
  params ->
  stats_of:(string -> Table_stats.t) ->
  from_design:Cddpd_catalog.Design.t ->
  to_design:Cddpd_catalog.Design.t ->
  float
(** TRANS(Ci, Cj): build every index in [to_design - from_design], drop
    every index in [from_design - to_design].  Zero iff the designs are
    equal. *)
