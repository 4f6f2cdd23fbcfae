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

val index_leaf_entry_bytes : Cddpd_catalog.Index_def.t -> int
(** Bytes per leaf entry: one 8-byte word per key column plus two for the
    rid, matching [Btree]'s physical layout. *)

val index_leaf_pages : params -> rows:int -> Cddpd_catalog.Index_def.t -> int
(** Estimated leaf page count at the assumed fill factor. *)

val index_size_pages : params -> rows:int -> Cddpd_catalog.Index_def.t -> int
(** Estimated total page count (leaves + internal levels + root). *)

val index_size_bytes : params -> rows:int -> Cddpd_catalog.Index_def.t -> int

val index_height : params -> rows:int -> Cddpd_catalog.Index_def.t -> int
(** Estimated levels, root to leaf inclusive. *)

val view_rows : Table_stats.t -> Cddpd_catalog.View_def.t -> int
(** Estimated group count (distinct values of the grouping column). *)

val view_size_pages : params -> stats:Table_stats.t -> Cddpd_catalog.View_def.t -> int

val view_size_bytes : params -> stats:Table_stats.t -> Cddpd_catalog.View_def.t -> int

val view_height : params -> stats:Table_stats.t -> Cddpd_catalog.View_def.t -> int
(** Estimated lookup-tree height. *)

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
    predicates (optionally followed by one range-bound column). *)

val select_cost :
  params -> Table_stats.t -> Cddpd_catalog.Design.t -> Cddpd_sql.Ast.select -> float
(** Cost of the chosen plan. *)

val rebind_select_plan : Cddpd_sql.Ast.select -> Plan.t -> Plan.t option
(** [rebind_select_plan select plan] re-extracts [select]'s literals into
    a plan memoized under the statement's [Cost_key] (which pins the plan
    shape and the estimator's floats but not literal bindings): the
    equality-prefix values and range bounds of an index seek.  [None] when
    the plan's shape does not fit the statement — impossible for a
    key-equal statement; callers then recompute with {!choose_plan}. *)

val rebind_agg_plan :
  group_by:string ->
  where:Cddpd_sql.Ast.predicate list ->
  Plan.t ->
  Plan.t option
(** {!rebind_select_plan} for aggregate plans: rebinds the view-probe
    group value. *)

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
    is [statement_cost params stats d s], bit for bit.  Each call counts
    one [cost_model.calls] evaluation. *)

(** {1 TRANS} *)

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
    the grouping column, else a full scan with on-the-fly aggregation. *)

val build_cost : params -> Table_stats.t -> Cddpd_catalog.Index_def.t -> float
(** Scan the table, sort the entries, write the index pages. *)

val view_build_cost : params -> Table_stats.t -> Cddpd_catalog.View_def.t -> float
(** Scan the table, aggregate, write the view pages. *)

val structure_build_cost : params -> Table_stats.t -> Cddpd_catalog.Structure.t -> float
(** {!build_cost} or {!view_build_cost}, by structure kind — the
    per-structure term {!transition_cost} sums (and {!Cost_cache}
    memoizes). *)

val transition_cost :
  params ->
  stats_of:(string -> Table_stats.t) ->
  from_design:Cddpd_catalog.Design.t ->
  to_design:Cddpd_catalog.Design.t ->
  float
(** TRANS(Ci, Cj): build every index in [to_design - from_design], drop
    every index in [from_design - to_design].  Zero iff the designs are
    equal. *)
