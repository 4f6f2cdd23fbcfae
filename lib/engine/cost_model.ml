module Ast = Cddpd_sql.Ast
module Index_def = Cddpd_catalog.Index_def
module View_def = Cddpd_catalog.View_def
module Structure = Cddpd_catalog.Structure
module Design = Cddpd_catalog.Design
module Page = Cddpd_storage.Page

(* -- observability ----------------------------------------------------------- *)

module Obs = Cddpd_obs

let m_calls = Obs.Registry.counter "cost_model.calls"

type params = {
  page_io : float;
  row_cpu : float;
  rid_fetch : float;
  sort_cpu : float;
  drop_cost : float;
  build_write_ratio : float;
  leaf_fill : float;
}

let default_params =
  {
    page_io = 1.0;
    row_cpu = 0.001;
    rid_fetch = 1.0;
    sort_cpu = 0.0002;
    drop_cost = 1.0;
    build_write_ratio = 1.0;
    leaf_fill = 0.9;
  }

(* -- index shape --------------------------------------------------------- *)

(* Mirrors Btree's layout: header 7 bytes, rid stored as two extra key
   components. *)
let btree_header = 7

let index_leaf_entry_bytes index = (List.length (Index_def.columns index) + 2) * 8

let leaf_entries_per_page index = (Page.size - btree_header) / index_leaf_entry_bytes index

let internal_fanout index =
  ((Page.size - btree_header - 4) / (index_leaf_entry_bytes index + 4)) + 1

let ceil_div a b = (a + b - 1) / b

let index_leaf_pages params ~rows index =
  if rows = 0 then 1
  else
    let per_page =
      max 1 (int_of_float (float_of_int (leaf_entries_per_page index) *. params.leaf_fill))
    in
    ceil_div rows per_page

let index_height params ~rows index =
  let fanout = max 2 (internal_fanout index) in
  let rec levels pages acc = if pages <= 1 then acc else levels (ceil_div pages fanout) (acc + 1) in
  levels (index_leaf_pages params ~rows index) 1

let index_size_pages params ~rows index =
  let fanout = max 2 (internal_fanout index) in
  let rec total pages acc =
    if pages <= 1 then acc + (if acc = 0 then 1 else pages)
    else total (ceil_div pages fanout) (acc + pages)
  in
  total (index_leaf_pages params ~rows index) 0

let index_size_bytes params ~rows index = index_size_pages params ~rows index * Page.size

(* -- view shape ------------------------------------------------------------ *)

(* Estimated number of distinct group values, from the column histogram. *)
let view_rows stats view =
  match Table_stats.histogram stats (View_def.group_by view) with
  | Some h -> max 1 (Histogram.n_distinct h)
  | None -> max 1 (Table_stats.row_count stats / 10)

(* View row: group + count + one sum per histogrammed column; stored as an
   all-int tuple in a slotted heap page plus a 3-component lookup tree. *)
let view_row_bytes stats =
  let n_sums = Table_stats.n_histograms stats in
  2 + (9 * (2 + n_sums)) + 4 (* slot entry *)

let view_heap_pages stats view =
  let per_page = max 1 ((Page.size - 4) / view_row_bytes stats) in
  ceil_div (view_rows stats view) per_page

(* The lookup tree has 3-component keys: reuse the index estimators via a
   synthetic 1-column definition (1 logical column + rid = 3 components). *)
let view_tree_shape_index view =
  Index_def.make ~table:(View_def.table view) ~columns:[ View_def.group_by view ]

let view_size_pages params ~stats view =
  view_heap_pages stats view
  + index_size_pages params ~rows:(view_rows stats view) (view_tree_shape_index view)

let view_size_bytes params ~stats view = view_size_pages params ~stats view * Page.size

let view_height params ~stats view =
  index_height params ~rows:(view_rows stats view) (view_tree_shape_index view)

let structure_size_bytes params ~stats structure =
  match structure with
  | Structure.Index index ->
      index_size_bytes params ~rows:(Table_stats.row_count stats) index
  | Structure.View view -> view_size_bytes params ~stats view

let design_size_bytes params ~stats_of design =
  Design.fold
    (fun structure acc ->
      acc + structure_size_bytes params ~stats:(stats_of (Structure.table structure)) structure)
    design 0

(* -- plan selection ------------------------------------------------------- *)

let full_scan_cost params stats =
  let pages = float_of_int (max 1 (Table_stats.page_count stats)) in
  let rows = float_of_int (Table_stats.row_count stats) in
  (params.page_io *. pages) +. (params.row_cpu *. rows)

(* -- bound statements --------------------------------------------------------

   Everything the EXEC formulas read from a statement that does not depend
   on the design: the per-predicate selectivities (the costly part — a
   histogram lookup each) and the column sets plan choice tests every
   index against.  Binding once and costing under many designs folds the
   same floats in the same order as costing each design from scratch, so
   the results are bit-identical. *)

type bound = {
  stats : Table_stats.t;
  statement : Ast.statement;
  table : string;
  where : Ast.predicate list;
  sels : float array;  (** [where]'s selectivities, in WHERE order *)
  conj : float;  (** their left-fold product: the conjunction selectivity *)
  referenced : string list option;
      (** columns an index must hold to cover the statement; [None] when
          nothing can cover it ([*] projections, DML victim search) *)
}

let bind stats statement =
  let where = Ast.where_of statement in
  let table, referenced =
    match statement with
    | Ast.Select { table; projection = Ast.Columns _; _ } ->
        (table, Some (Ast.referenced_columns statement))
    | Ast.Select { table; projection = Ast.Star; _ }
    | Ast.Select_agg { table; _ }
    | Ast.Insert { table; _ }
    | Ast.Delete { table; _ }
    | Ast.Update { table; _ } ->
        (table, None)
  in
  let sels = Array.of_list (List.map (Table_stats.predicate_selectivity stats) where) in
  {
    stats;
    statement;
    table;
    where;
    sels;
    conj = Array.fold_left ( *. ) 1.0 sels;
    referenced;
  }

(* Estimated rows matching the bound WHERE clause (independent
   predicates). *)
let bound_rows b = b.conj *. float_of_int (Table_stats.row_count b.stats)

(* The predicates an index seek with prefix [eq_cols] and optional range on
   [range_col] covers, for selectivity purposes. *)
let seek_selectivity b eq_cols range_col =
  let covered pred =
    match pred with
    | Ast.Cmp { column; op = Ast.Eq; _ } -> List.mem column eq_cols
    | Ast.Cmp { column; _ } | Ast.Between { column; _ } -> (
        match range_col with Some c -> String.equal c column | None -> false)
  in
  let acc = ref 1.0 in
  List.iteri (fun i pred -> if covered pred then acc := !acc *. b.sels.(i)) b.where;
  !acc

(* Whether the index key contains every column the select references, so
   the query can be answered without touching the heap. *)
let index_covers b index =
  match b.referenced with
  | None -> false
  | Some referenced ->
      let key = Index_def.columns index in
      List.for_all (fun c -> List.mem c key) referenced

(* Covering leaf scan: read the whole (narrow) leaf level instead of the
   heap.  Applicable whenever the index covers the query; chosen by the
   planner when no seek beats it. *)
let index_only_scan_plan params b index =
  if not (index_covers b index) then None
  else
    let rows = Table_stats.row_count b.stats in
    let leaf_pages = float_of_int (index_leaf_pages params ~rows index) in
    let cost = (params.page_io *. leaf_pages) +. (params.row_cpu *. float_of_int rows) in
    Some
      {
        Plan.path = Plan.Index_only_scan { index };
        estimated_rows = bound_rows b;
        estimated_cost = cost;
      }

(* Try to use [index] for the bound statement's WHERE clause; None if the
   index gives no sargable prefix.  {!Filter.seek} decides the seek's
   shape. *)
let index_seek_plan params b index =
  let key = Index_def.columns index in
  match Filter.seek key b.where with
  | { Filter.eq = []; range = None } -> None
  | { Filter.eq; range } ->
      let prefix = List.length eq and range = Option.is_some range in
      let eq_cols = List.filteri (fun i _ -> i < prefix) key in
      let range_col = if range then List.nth_opt key prefix else None in
      let sel = seek_selectivity b eq_cols range_col in
      let rows = float_of_int (Table_stats.row_count b.stats) in
      let matched = sel *. rows in
      let per_page = float_of_int (max 1 (leaf_entries_per_page index)) in
      let leaf_pages_touched = Float.max 1.0 (Float.ceil (matched /. per_page)) in
      let height = float_of_int (index_height params ~rows:(Table_stats.row_count b.stats) index) in
      (* A covering seek never touches the heap; a covering seek also
         requires every residual predicate column to be in the key, which
         [index_covers] implies. *)
      let covering = index_covers b index in
      let fetch = if covering then 0.0 else params.rid_fetch *. matched in
      let cost =
        (params.page_io *. (height +. leaf_pages_touched))
        +. fetch
        +. (params.row_cpu *. matched)
      in
      Some
        {
          Plan.path = Plan.Index_seek { index; prefix; range; covering };
          estimated_rows = b.conj *. rows;
          estimated_cost = cost;
        }

(* -- atoms ---------------------------------------------------------------------

   A statement's cost under a design is fixed by its per-structure atoms
   (CoPhy's atomic configurations): the cheapest access path through each
   structure, and the maintenance each structure adds per affected row of
   a write.  Every plan choice and every EXEC formula below is a fold over
   them — the one place a seek, a covering scan, a view probe or a
   maintenance term is costed.

   The fold starts from the structure-free plan and replaces the incumbent
   only with a strictly cheaper atom, so equal costs keep the earlier
   structure in design order (and, inside one index, a seek beats an
   equally cheap covering scan); maintenance terms are summed in
   [Design.fold] order, indexes before views.  A caller that keeps atoms
   and composes a design from them in the same order (the EXEC fill of
   [Problem.build]) gets the bit-identical float. *)

type atom = { access : Plan.t option; maintenance : float }

(* Groups an aggregate over [group_by] produces, from the column histogram. *)
let agg_groups stats group_by =
  match Table_stats.histogram stats group_by with
  | Some h -> float_of_int (max 1 (Histogram.n_distinct h))
  | None -> Float.max 1.0 (float_of_int (Table_stats.row_count stats) /. 10.)

(* Scan the heap and aggregate on the fly. *)
let agg_scan_plan params stats ~group_by =
  {
    Plan.path = Plan.Full_scan;
    estimated_rows = agg_groups stats group_by;
    estimated_cost =
      full_scan_cost params stats +. (params.row_cpu *. float_of_int (Table_stats.row_count stats));
  }

let base_plan params b =
  match b.statement with
  | Ast.Select_agg { group_by; _ } -> agg_scan_plan params b.stats ~group_by
  | Ast.Select _ | Ast.Insert _ | Ast.Delete _ | Ast.Update _ ->
      {
        Plan.path = Plan.Full_scan;
        estimated_rows = bound_rows b;
        estimated_cost = full_scan_cost params b.stats;
      }

(* A view answers the aggregate query iff it groups by the same column and
   every predicate is an equality on that column (the probe key). *)
let view_answers ~group_by ~where view =
  String.equal (View_def.group_by view) group_by
  && List.for_all
       (fun pred ->
         match pred with
         | Ast.Cmp { column; op = Ast.Eq; _ } -> String.equal column group_by
         | Ast.Cmp _ | Ast.Between _ -> false)
       where

(* An index serves the WHERE clause by a seek or, when it covers the
   statement, a leaf scan; the seek wins a tie. *)
let index_access params b index =
  match (index_seek_plan params b index, index_only_scan_plan params b index) with
  | Some seek, Some cover when cover.Plan.estimated_cost < seek.Plan.estimated_cost ->
      Some cover
  | (Some _ as seek), _ -> seek
  | None, cover -> cover

let view_plan params b view =
  match b.statement with
  | Ast.Select_agg { group_by; where; _ } when view_answers ~group_by ~where view ->
      (* A view's lookup tree is keyed by the group value: the seek rule on
         that one column decides between a probe and a scan. *)
      let point = (Filter.seek [ group_by ] where).Filter.eq <> [] in
      let cost =
        if point then
          (* Probe: tree descent plus one heap fetch. *)
          params.page_io *. float_of_int (view_height params ~stats:b.stats view + 1)
        else
          (* Scan every view row via the tree leaves and heap pages. *)
          params.page_io *. float_of_int (view_size_pages params ~stats:b.stats view)
          +. (params.row_cpu *. agg_groups b.stats group_by)
      in
      let estimated_rows = if point then 1.0 else agg_groups b.stats group_by in
      Some { Plan.path = Plan.View_probe { view; point }; estimated_rows; estimated_cost = cost }
  | Ast.Select_agg _ | Ast.Select _ | Ast.Insert _ | Ast.Delete _ | Ast.Update _ -> None

(* Per affected base row: each index pays a root-to-leaf update; each view
   pays a lookup plus a row rewrite. *)
let maintenance_term params b structure =
  match structure with
  | Structure.Index index ->
      params.page_io
      *. float_of_int (index_height params ~rows:(Table_stats.row_count b.stats) index + 1)
  | Structure.View view ->
      params.page_io *. float_of_int (view_height params ~stats:b.stats view + 3)

(* The atom without the what-if tally: execution-time planning folds it
   too, and is not a what-if call. *)
let atom_of params b structure =
  if not (String.equal (Structure.table structure) b.table) then
    { access = None; maintenance = 0.0 }
  else
    let access =
      match (structure, b.statement) with
      | Structure.Index index, (Ast.Select _ | Ast.Delete _ | Ast.Update _) ->
          index_access params b index
      | Structure.View view, _ -> view_plan params b view
      | Structure.Index _, (Ast.Select_agg _ | Ast.Insert _) -> None
    in
    let maintenance =
      if Ast.is_read_only b.statement then 0.0 else maintenance_term params b structure
    in
    { access; maintenance }

let atom params b structure =
  Obs.Counter.incr m_calls;
  atom_of params b structure

let access_cost a = match a.access with Some plan -> plan.Plan.estimated_cost | None -> infinity

(* The one fold: the cheapest plan over the design's atoms and their
   summed maintenance.  A read's or another table's atom carries a zero
   term, and adding [0.0] to the non-negative running sum leaves its bits
   unchanged. *)
let fold_atoms atom params b design =
  Design.fold
    (fun structure (best, maintenance) ->
      let a = atom params b structure in
      let best =
        match a.access with
        | Some plan when plan.Plan.estimated_cost < best.Plan.estimated_cost -> plan
        | Some _ | None -> best
      in
      (best, maintenance +. a.maintenance))
    design (base_plan params b, 0.0)

let compose params b ~access ~maintenance =
  match b.statement with
  | Ast.Select _ | Ast.Select_agg _ -> access
  | Ast.Insert _ -> params.page_io +. maintenance
  | Ast.Delete _ ->
      (* Find the victims like a SELECT * (never covered, so the plan
         yields heap rows), then pay one write and the maintenance per
         affected row. *)
      access +. (bound_rows b *. (params.page_io +. maintenance))
  | Ast.Update _ ->
      (* Delete the old version, insert the new one: two heap writes and
         double index maintenance per affected row. *)
      2.0 *. (access +. (bound_rows b *. (params.page_io +. maintenance)))

(* The chosen plan of a bound statement: the SELECT's own plan, the
   aggregate's view or scan, or the victim search of a DELETE/UPDATE. *)
let bound_plan params b design =
  let best, _ = fold_atoms atom_of params b design in
  Plan.count_choice best;
  best

let choose_plan params stats design select = bound_plan params (bind stats (Ast.Select select)) design

let select_cost params stats design select =
  (choose_plan params stats design select).Plan.estimated_cost

let choose_agg_plan params stats design ~table ~group_by ~where =
  (* The aggregate function is not a cost input. *)
  bound_plan params
    (bind stats (Ast.Select_agg { table; group_by; aggregate = Ast.Count_star; where }))
    design

let bound_cost params b design =
  let best, maintenance = fold_atoms atom params b design in
  (match b.statement with
  | Ast.Insert _ -> ()
  | Ast.Select _ | Ast.Select_agg _ | Ast.Delete _ | Ast.Update _ -> Plan.count_choice best);
  compose params b ~access:best.Plan.estimated_cost ~maintenance

let statement_cost params stats design statement =
  bound_cost params (bind stats statement) design

(* -- transitions ---------------------------------------------------------- *)

let build_cost params stats index =
  let rows = Table_stats.row_count stats in
  let scan = float_of_int (max 1 (Table_stats.page_count stats)) *. params.page_io in
  let sort =
    if rows <= 1 then 0.0
    else params.sort_cpu *. float_of_int rows *. (log (float_of_int rows) /. log 2.0)
  in
  let write =
    params.build_write_ratio *. params.page_io
    *. float_of_int (index_size_pages params ~rows index)
  in
  scan +. sort +. write

(* Building a view: scan the base table, aggregate (cpu), write the view
   pages. *)
let view_build_cost params stats view =
  let scan = float_of_int (max 1 (Table_stats.page_count stats)) *. params.page_io in
  let cpu = params.row_cpu *. float_of_int (Table_stats.row_count stats) in
  let write =
    params.build_write_ratio *. params.page_io
    *. float_of_int (view_size_pages params ~stats view)
  in
  scan +. cpu +. write

let structure_build_cost params stats structure =
  match structure with
  | Structure.Index index -> build_cost params stats index
  | Structure.View view -> view_build_cost params stats view

let transition_cost params ~stats_of ~from_design ~to_design =
  let built = Design.diff to_design from_design in
  let dropped = Design.diff from_design to_design in
  let build_total =
    Design.fold
      (fun structure acc ->
        acc
        +. structure_build_cost params (stats_of (Structure.table structure)) structure)
      built 0.0
  in
  build_total +. (params.drop_cost *. float_of_int (Design.cardinality dropped))
