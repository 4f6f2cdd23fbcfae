module Ast = Cddpd_sql.Ast
module Parser = Cddpd_sql.Parser
module Schema = Cddpd_catalog.Schema
module Design = Cddpd_catalog.Design
module Index_def = Cddpd_catalog.Index_def
module View_def = Cddpd_catalog.View_def
module Structure = Cddpd_catalog.Structure
module Tuple = Cddpd_storage.Tuple
module Heap_file = Cddpd_storage.Heap_file
module Buffer_pool = Cddpd_storage.Buffer_pool
module Disk = Cddpd_storage.Disk
module Obs = Cddpd_obs

let m_migrations = Obs.Registry.counter "database.migrations"
let m_structures_built = Obs.Registry.counter "database.structures_built"
let m_structures_dropped = Obs.Registry.counter "database.structures_dropped"
let m_stats_refreshes = Obs.Registry.counter "database.stats_refreshes"
let m_plan_hits = Obs.Registry.counter "plan_cache.hits"
let m_plan_misses = Obs.Registry.counter "plan_cache.misses"
let m_plan_invalidations = Obs.Registry.counter "plan_cache.invalidations"

(* An integer column's tuple position and the multiset of its values,
   maintained by every heap mutation. *)
type column_counts = { column : string; position : int; counts : Value_counts.t }

type table_state = {
  schema : Schema.table;
  layout : Filter.layout; (* where each column sits in a heap record *)
  heap : Heap_file.t;
  int_columns : column_counts list; (* declared order *)
  mutable indexes : Index.t list;
  mutable views : Mat_view.t list;
  mutable stats : Table_stats.t option; (* None when stale *)
  mutable stats_gen : int; (* bumped whenever the snapshot is invalidated or replaced *)
}

type t = {
  disk : Disk.t;
  pool : Buffer_pool.t;
  params : Cost_model.params;
  tables : (string, table_state) Hashtbl.t;
  table_order : string list;
  mutable design_memo : Design.t option;
      (* deployed design, dropped on any structure change *)
  ids : Cost_key.id Cost_key.Id_tbl.t;  (* one shared id per distinct cost key *)
  mutable stamp : Cost_key.stamp;  (* the deployed design's plan fence *)
  mutable plan_hits : int;
  mutable plan_misses : int;
  mutable plan_invalidations : int;
  mutable plans_stored : int;  (* under [stamp] *)
  mutable stored : Cost_key.id list;
      (* the ids those plans went to, for the fence; emptied when [ids] resets *)
}

let create ?(pool_capacity = 256) ?(params = Cost_model.default_params) schemas =
  (match schemas with [] -> invalid_arg "Database.create: no tables" | _ :: _ -> ());
  let disk = Disk.create () in
  let pool = Buffer_pool.create ~capacity:pool_capacity disk in
  let tables = Hashtbl.create 8 in
  List.iter
    (fun (schema : Schema.table) ->
      if Hashtbl.mem tables schema.Schema.name then
        invalid_arg "Database.create: duplicate table name";
      let int_columns =
        List.filter_map
          (fun (c : Schema.column) ->
            match c.Schema.ty with
            | Schema.Int_type ->
                Some
                  {
                    column = c.Schema.name;
                    position = Schema.column_index_exn schema c.Schema.name;
                    counts = Value_counts.create ();
                  }
            | Schema.Text_type -> None)
          schema.Schema.columns
      in
      Hashtbl.replace tables schema.Schema.name
        {
          schema;
          layout = Filter.heap_layout schema;
          heap = Heap_file.create pool;
          int_columns;
          indexes = [];
          views = [];
          stats = None;
          stats_gen = 0;
        })
    schemas;
  {
    disk;
    pool;
    params;
    tables;
    table_order = List.map (fun (s : Schema.table) -> s.Schema.name) schemas;
    design_memo = None;
    ids = Cost_key.Id_tbl.create 256;
    stamp = Cost_key.stamp ();
    plan_hits = 0;
    plan_misses = 0;
    plan_invalidations = 0;
    plans_stored = 0;
    stored = [];
  }

let params t = t.params

let table_state t name =
  match Hashtbl.find_opt t.tables name with
  | Some state -> state
  | None -> invalid_arg (Printf.sprintf "Database: unknown table %s" name)

let schema t name =
  Option.map (fun state -> state.schema) (Hashtbl.find_opt t.tables name)

let tables t = List.map (fun name -> (table_state t name).schema) t.table_order

let row_count t name = Heap_file.n_tuples (table_state t name).heap

let page_count t name = Heap_file.n_pages (table_state t name).heap

let scan t name f = Heap_file.iter (table_state t name).heap (fun _rid tuple -> f tuple)

(* -- statistics ----------------------------------------------------------- *)

(* A refresh reads only the maintained value counts and the heap's
   counters: O(distinct values) per column, no page access, so it never
   shows up in any statement's I/O. *)
let collect_stats state =
  Obs.Counter.incr m_stats_refreshes;
  Obs.Span.with_span "database.stats_refresh" (fun () ->
      let histograms =
        List.map (fun c -> (c.column, Value_counts.histogram c.counts)) state.int_columns
      in
      Table_stats.make ~row_count:(Heap_file.n_tuples state.heap)
        ~page_count:(Heap_file.n_pages state.heap) ~histograms)

let table_stats t name =
  let state = table_state t name in
  match state.stats with
  | Some stats -> stats
  | None ->
      let stats = collect_stats state in
      state.stats <- Some stats;
      stats

(* Invalidation bumps the table's statistics generation; [analyze] bumps
   it too because it *replaces* the snapshot.  Lazy materialization in
   [table_stats] does not bump, so within one generation there is at most
   one snapshot and generation equality proves two [table_stats] results
   are physically the same object — the fence the serve fast path keys
   cost identities on. *)
let invalidate_stats state =
  state.stats <- None;
  state.stats_gen <- state.stats_gen + 1

let analyze t =
  List.iter
    (fun name ->
      let state = table_state t name in
      state.stats <- Some (collect_stats state);
      state.stats_gen <- state.stats_gen + 1)
    t.table_order

let stats_generation t name = (table_state t name).stats_gen

(* -- loading -------------------------------------------------------------- *)

let validate_row state tuple =
  match Schema.validate_tuple state.schema tuple with
  | Ok () -> ()
  | Error message -> invalid_arg ("Database.load: " ^ message)

let insert_row state tuple =
  validate_row state tuple;
  let rid = Heap_file.insert state.heap tuple in
  List.iter
    (fun c -> Value_counts.add c.counts (Tuple.int_exn tuple.(c.position)))
    state.int_columns;
  List.iter (fun index -> Index.insert_entry index tuple rid) state.indexes;
  List.iter (fun view -> Mat_view.apply_insert view tuple) state.views

(* Bulk path: append every row to the heap first, count each integer
   column by batch (one sort, run-length pass and merge), then rebuild
   each existing index ([Index.build]: one heap scan, sort,
   [Btree.bulk_load]) and materialized view from scratch, instead of
   descending a tree per row per structure.  Structure list order is
   preserved; each replaced structure gives its pages back, as a drop
   does.  All rows are validated up front, so a bad row rejects
   the whole batch before any mutation (the row-at-a-time path fails
   mid-way instead). *)
let bulk_load t state rows =
  Array.iter (validate_row state) rows;
  let heap_was_empty = Heap_file.n_tuples state.heap = 0 in
  let rids =
    match state.indexes with
    | [] ->
        Array.iter (fun tuple -> ignore (Heap_file.insert state.heap tuple)) rows;
        [||]
    | _ :: _ -> Array.map (fun tuple -> Heap_file.insert state.heap tuple) rows
  in
  List.iter
    (fun c ->
      Value_counts.add_batch c.counts (Array.map (fun row -> Tuple.int_exn row.(c.position)) rows))
    state.int_columns;
  let old_indexes = state.indexes and old_views = state.views in
  state.indexes <-
    List.map
      (fun i ->
        (* When the batch is the whole heap, build each tree straight from
           the in-memory rows and the rids just assigned — no heap rescan,
           no per-row tuple decode. *)
        if heap_was_empty then
          Index.build_of_rows t.pool state.schema (Index.def i) ~rows ~rids
        else Index.build t.pool state.schema state.heap (Index.def i))
      old_indexes;
  state.views <-
    List.map (fun v -> Mat_view.build t.pool state.schema state.heap (Mat_view.def v)) old_views;
  List.iter Index.release old_indexes;
  List.iter Mat_view.release old_views

let load ?(bulk = true) t ~table rows =
  let state = table_state t table in
  (* Invalidate rather than recompute: statistics are rebuilt from the
     maintained counts on the first [table_stats] call, the same
     convention as the DML paths.  A row-at-a-time load that fails
     mid-way still invalidates, since the rows before the bad one are in. *)
  Fun.protect
    ~finally:(fun () -> invalidate_stats state)
    (fun () -> if bulk then bulk_load t state rows else Array.iter (insert_row state) rows)

(* -- physical design ------------------------------------------------------ *)

(* Iterate in declared table order (not Hashtbl order) so the resulting
   design — and anything derived from it, like migration sequences — is
   deterministic across processes and hash seeds. *)
let compute_design t =
  List.fold_left
    (fun acc name ->
      let state = table_state t name in
      let acc =
        List.fold_left
          (fun acc index -> Design.add (Index.def index) acc)
          acc state.indexes
      in
      List.fold_left (fun acc view -> Design.add_view (Mat_view.def view) acc) acc state.views)
    Design.empty t.table_order

let current_design t =
  match t.design_memo with
  | Some design -> design
  | None ->
      let design = compute_design t in
      t.design_memo <- Some design;
      design

(* Every actual structure change drops the design memo and replaces the
   design stamp.  The stamp is the plan memo's design fence: keys name
   the statement only, so a plan stored under the old stamp no longer
   hits.  The fence also empties each slot that still holds a plan under
   the stamp it retires, so no dead plan outlives its design; a slot
   another database has stored in since keeps that plan.  The fence
   counts as an invalidation when a plan was stored under the retired
   stamp. *)
let design_changed t =
  t.design_memo <- None;
  if t.plans_stored > 0 then begin
    t.plan_invalidations <- t.plan_invalidations + 1;
    Obs.Counter.incr m_plan_invalidations;
    List.iter (fun id -> Cost_key.forget id t.stamp) t.stored;
    t.plans_stored <- 0;
    t.stored <- []
  end;
  t.stamp <- Cost_key.stamp ()

let build_index t def =
  let state = table_state t (Index_def.table def) in
  let already = List.exists (fun i -> Index_def.equal (Index.def i) def) state.indexes in
  if not already then begin
    let index = Index.build t.pool state.schema state.heap def in
    state.indexes <- index :: state.indexes;
    design_changed t
  end

(* A drop gives the structure's pages back to the disk ([release]): no
   page is fetched or written, so dropping costs no I/O, as in the cost
   model, and the disk holds only the heaps and the live design. *)
let drop_index t def =
  let state = table_state t (Index_def.table def) in
  match List.partition (fun i -> Index_def.equal (Index.def i) def) state.indexes with
  | [], _ -> ()
  | dropped, kept ->
      List.iter Index.release dropped;
      state.indexes <- kept;
      design_changed t

let build_view t def =
  let state = table_state t (View_def.table def) in
  let already = List.exists (fun v -> View_def.equal (Mat_view.def v) def) state.views in
  if not already then begin
    let view = Mat_view.build t.pool state.schema state.heap def in
    state.views <- view :: state.views;
    design_changed t
  end

let drop_view t def =
  let state = table_state t (View_def.table def) in
  match List.partition (fun v -> View_def.equal (Mat_view.def v) def) state.views with
  | [], _ -> ()
  | dropped, kept ->
      List.iter Mat_view.release dropped;
      state.views <- kept;
      design_changed t

let build_structure t structure =
  match structure with
  | Structure.Index def -> build_index t def
  | Structure.View def -> build_view t def

let drop_structure t structure =
  match structure with
  | Structure.Index def -> drop_index t def
  | Structure.View def -> drop_view t def

let migrate_to t target =
  let current = current_design t in
  let to_drop = Design.diff current target and to_build = Design.diff target current in
  Obs.Counter.incr m_migrations;
  Obs.Counter.add m_structures_dropped (Design.cardinality to_drop);
  Obs.Counter.add m_structures_built (Design.cardinality to_build);
  Design.fold (fun s () -> drop_structure t s) to_drop ();
  Design.fold (fun s () -> build_structure t s) to_build ()

(* -- execution ------------------------------------------------------------ *)

type exec_result = {
  rows : Tuple.t list;
  affected : int;
  plan : Plan.t option;
  logical_io : int;
  physical_io : int;
}

let logical_io t = Buffer_pool.accesses t.pool

let disk_reads t = Disk.reads t.disk

let disk t = t.disk

let design_pages t =
  List.fold_left
    (fun acc name ->
      let state = table_state t name in
      let acc = List.fold_left (fun acc i -> acc + Index.n_pages i) acc state.indexes in
      List.fold_left (fun acc v -> acc + Mat_view.n_pages v) acc state.views)
    0 t.table_order

(* -- prepared statements ----------------------------------------------------

   A handle on one statement compiles, lazily, the three things execution
   derives from the text alone: the WHERE filter, the projection, and an
   index seek's key interval.  Each slot holds one compile and the layout
   it was compiled against ([table_state.layout] for heap records,
   [Index.layout] for an index's entries), compared physically: every
   table and every index build owns its layout, so a compile is never
   applied to another heap or index.  A dropped and rebuilt index, or
   another database, recompiles; so does a plan that moves between the
   heap and an index. *)

(* The key of a slot that holds no compile: a layout nothing owns. *)
let unset = Filter.entry_layout []

let no_filter = Filter.compile unset []

let no_emit : bytes -> int -> Tuple.t = fun _buf _base -> [||]

let no_bounds = { Index.lo = [||]; hi = [||] }

type prepared = {
  statement : Ast.statement;
  mutable filter_on : Filter.layout;
  mutable filter : Filter.t;
  mutable emit_on : Filter.layout;
  mutable emit : bytes -> int -> Tuple.t;
  mutable bounds_on : Filter.layout;
  mutable bounds : Index.bounds;
}

let prepare statement =
  {
    statement;
    filter_on = unset;
    filter = no_filter;
    emit_on = unset;
    emit = no_emit;
    bounds_on = unset;
    bounds = no_bounds;
  }

let where_of (statement : Ast.statement) =
  match statement with
  | Ast.Select { Ast.where; _ }
  | Ast.Select_agg { where; _ }
  | Ast.Delete { where; _ }
  | Ast.Update { where; _ } ->
      where
  | Ast.Insert _ -> []

let filter_for p layout =
  if p.filter_on != layout then begin
    p.filter <- Filter.compile layout (where_of p.statement);
    p.filter_on <- layout
  end;
  p.filter

(* The projection over a layout's records, columns resolved once. *)
let emit_for p layout projection =
  if p.emit_on != layout then begin
    let positions =
      match projection with
      | Ast.Star -> Array.init (Filter.arity layout) Fun.id
      | Ast.Columns cs -> Array.of_list (List.map (Filter.position layout) cs)
    in
    p.emit <-
      (fun buf base ->
        let row = Array.make (Array.length positions) (Tuple.Int 0) in
        for i = 0 to Array.length positions - 1 do
          row.(i) <- Filter.read layout positions.(i) buf base
        done;
        row);
    p.emit_on <- layout
  end;
  p.emit

(* The key interval a seek on [index] walks for the WHERE clause: the
   statement's own literals, by the rule that chose the plan's shape. *)
let bounds_for p index =
  let layout = Index.layout index in
  if p.bounds_on != layout then begin
    p.bounds <-
      Index.bounds index (Filter.seek (Index_def.columns (Index.def index)) (where_of p.statement));
    p.bounds_on <- layout
  end;
  p.bounds

let find_index state def =
  match List.find_opt (fun i -> Index_def.equal (Index.def i) def) state.indexes with
  | Some index -> index
  | None -> failwith "Database: plan references an index that is not materialised"

(* The heap rows an access path reads, in access order: [take buf base
   page slot] on every record that passes the handle's filter.  A full
   scan tests the ranges in the heap kernel's page loop; a non-covering
   seek fetches its rids in key order (after the whole index walk, so the
   page sequence is the walk's, then the fetches') and tests the fetched
   record in place. *)
let iter_heap_matches state p (path : Plan.access_path) take =
  let filter = filter_for p state.layout in
  match path with
  | Plan.Full_scan ->
      Heap_file.scan state.heap ~ranges:(Filter.ranges filter) (fun buf base page slot ->
          if Filter.residual filter buf base then take buf base page slot)
  | Plan.Index_seek { index = def; _ } ->
      let index = find_index state def in
      List.iter
        (fun (rid : Heap_file.rid) ->
          Heap_file.fetch_slice state.heap rid ~ranges:(Filter.ranges filter) (fun buf base ->
              if Filter.residual filter buf base then
                take buf base rid.Heap_file.page rid.Heap_file.slot))
        (Index.probe index (bounds_for p index))
  | Plan.Index_only_scan _ | Plan.View_probe _ ->
      failwith "Database: plan does not read heap rows"

(* A covering plan's rows: the index entries in [bounds] that pass the
   handle's filter, projected from the entry. *)
let entry_rows p (select : Ast.select) rows index bounds =
  let layout = Index.layout index in
  let filter = filter_for p layout in
  let emit =
    match select.Ast.projection with
    | Ast.Star -> failwith "Database: covering plan with * projection"
    | Ast.Columns _ as projection -> emit_for p layout projection
  in
  Index.probe_slices index bounds ~ranges:(Filter.ranges filter) (fun buf pos ->
      if Filter.residual filter buf pos then rows := emit buf pos :: !rows)

let run_select state p (select : Ast.select) (path : Plan.access_path) =
  let rows = ref [] in
  (match path with
  | Plan.Index_seek { index = def; covering = true; _ } ->
      let index = find_index state def in
      entry_rows p select rows index (bounds_for p index)
  | Plan.Index_only_scan { index = def } ->
      let index = find_index state def in
      entry_rows p select rows index (Index.bounds index Filter.unbounded)
  | Plan.Full_scan | Plan.Index_seek { covering = false; _ } ->
      let emit = emit_for p state.layout select.Ast.projection in
      iter_heap_matches state p path (fun buf base _page _slot -> rows := emit buf base :: !rows)
  | Plan.View_probe _ -> failwith "Database: view plan for a non-aggregate query");
  List.rev !rows

(* Victim collection for DELETE/UPDATE: plan the WHERE clause like a
   SELECT * (never covered, so the plan reads heap rows) and return the
   matching (rid, tuple) pairs before any mutation. *)
let collect_matching t state p ~table ~where =
  let find_select = { Ast.projection = Ast.Star; table; where } in
  let stats = table_stats t table in
  let plan = Cost_model.choose_plan t.params stats (current_design t) find_select in
  let victims = ref [] in
  iter_heap_matches state p plan.Plan.path (fun buf base page slot ->
      victims := ({ Heap_file.page; slot }, Tuple.decode_at buf ~base) :: !victims);
  (List.rev !victims, plan)

let delete_row state rid tuple =
  if Heap_file.delete state.heap rid then
    List.iter
      (fun c -> Value_counts.remove c.counts (Tuple.int_exn tuple.(c.position)))
      state.int_columns;
  List.iter (fun index -> ignore (Index.delete_entry index tuple rid)) state.indexes;
  List.iter (fun view -> Mat_view.apply_delete view tuple) state.views

let run_delete t p ~table ~where =
  let state = table_state t table in
  let victims, plan = collect_matching t state p ~table ~where in
  List.iter (fun (rid, tuple) -> delete_row state rid tuple) victims;
  invalidate_stats state;
  (List.length victims, plan)

let run_update t p ~table ~assignments ~where =
  let state = table_state t table in
  let victims, plan = collect_matching t state p ~table ~where in
  let apply tuple =
    let updated = Array.copy tuple in
    List.iter
      (fun (column, value) ->
        updated.(Schema.column_index_exn state.schema column) <- value)
      assignments;
    updated
  in
  (* Implemented as delete + reinsert, which keeps every index consistent
     even when an assignment touches a key column. *)
  List.iter
    (fun (rid, tuple) ->
      delete_row state rid tuple;
      insert_row state (apply tuple))
    victims;
  invalidate_stats state;
  (List.length victims, plan)

(* Run an aggregate query under its runnable plan ({!runnable}): from a
   materialized view that answers it, or by scanning and hashing on the
   fly. *)
let run_select_agg t p ~table ~group_by ~aggregate ~where (path : Plan.access_path) =
  let state = table_state t table in
  let emit group value = [| Tuple.Int group; Tuple.Int value |] in
  match path with
  | Plan.View_probe { view = view_def; _ } -> (
      let view =
        match
          List.find_opt
            (fun v -> View_def.equal (Mat_view.def v) view_def)
            state.views
        with
        | Some view -> view
        | None -> failwith "Database: plan references a view that is not materialised"
      in
      let of_row (row : Mat_view.row) =
        let value =
          match aggregate with
          | Ast.Count_star -> row.Mat_view.count
          | Ast.Sum column ->
              let rec position i columns =
                match columns with
                | [] -> failwith "Database: view lacks the summed column"
                | c :: rest -> if String.equal c column then i else position (i + 1) rest
              in
              row.Mat_view.sums.(position 0 (Mat_view.sum_columns view))
        in
        emit row.Mat_view.group_value value
      in
      (* The view's tree is keyed by the group value: the seek rule on the
         grouping column gives the statement's own probe literal.  Every
         predicate is an equality on that column, and the group must pass
         them all: [a = 5 AND a = 6] selects nothing. *)
      match (Filter.seek [ group_by ] where).Filter.eq with
      | g :: _ -> (
          let admits pred =
            match Filter.predicate_interval pred with
            | Some (lo, hi) -> lo <= g && g <= hi
            | None -> false
          in
          match Mat_view.lookup view g with
          | Some row when List.for_all admits where -> [ of_row row ]
          | Some _ | None -> [])
      | [] ->
          (* The view heap's order follows past DML; rows leave in
             ascending group order, the hash aggregate's. *)
          let out = ref [] in
          Mat_view.scan view (fun row -> out := row :: !out);
          List.sort
            (fun (r1 : Mat_view.row) (r2 : Mat_view.row) ->
              Int.compare r1.Mat_view.group_value r2.Mat_view.group_value)
            !out
          |> List.map of_row)
  | Plan.Full_scan ->
      (* Hash aggregation over a filtered scan. *)
      let group = Filter.position state.layout group_by in
      let summed =
        match aggregate with
        | Ast.Count_star -> None
        | Ast.Sum column -> Some (Filter.position state.layout column)
      in
      let groups = Hashtbl.create 64 in
      iter_heap_matches state p Plan.Full_scan (fun buf base _page _slot ->
          let g = Filter.read_int state.layout group buf base in
          let delta =
            match summed with
            | None -> 1
            | Some pos -> Filter.read_int state.layout pos buf base
          in
          Hashtbl.replace groups g (delta + Option.value ~default:0 (Hashtbl.find_opt groups g)));
      Hashtbl.to_seq groups |> List.of_seq
      |> List.sort (fun (g1, v1) (g2, v2) ->
             let c = Int.compare g1 g2 in
             if c <> 0 then c else Int.compare v1 v2)
      |> List.map (fun (g, v) -> emit g v)
  | Plan.Index_seek _ | Plan.Index_only_scan _ ->
      failwith "Database: unexpected plan for an aggregate query"

(* Planning a SELECT or an aggregate from scratch; the planner counts its
   choice. *)
let fresh_plan t (statement : Ast.statement) =
  match statement with
  | Ast.Select select ->
      Cost_model.choose_plan t.params (table_stats t select.Ast.table) (current_design t) select
  | Ast.Select_agg { table; group_by; where; _ } ->
      Cost_model.choose_agg_plan t.params (table_stats t table) (current_design t) ~table
        ~group_by ~where
  | Ast.Insert _ | Ast.Delete _ | Ast.Update _ -> invalid_arg "Database: not a read"

(* The plan a memoized plan runs as for this statement.  A view plan runs
   only when the planner's own rule ({!Cost_model.view_answers}) says the
   view answers the aggregate: met under a wrong key, it becomes the hash
   aggregate over a full scan, so the key costs I/O, never rows.  A plan
   the planner chose always runs as chosen. *)
let runnable t (statement : Ast.statement) (plan : Plan.t) =
  match (statement, plan.Plan.path) with
  | Ast.Select_agg { table; group_by; where; _ }, Plan.View_probe { view; _ }
    when not (Cost_model.view_answers ~group_by ~where view) ->
      Cost_model.agg_scan_plan t.params (table_stats t table) ~group_by
  | _, (Plan.Full_scan | Plan.Index_seek _ | Plan.Index_only_scan _ | Plan.View_probe _) -> plan

(* One id per distinct cost key, so equal keys share one plan slot.
   Bounded; a reset only costs the sharing, never correctness.  A reset
   also lets go of the ids the next fence would visit ([stored]), so
   that list never outgrows the table: an id the table dropped is
   garbage unless a caller still holds it, and such an id keeps its plan
   until it stores another. *)
let id_capacity = 16_384

let cost_id t key =
  let id = Cost_key.id key in
  match Cost_key.Id_tbl.find_opt t.ids id with
  | Some shared -> shared
  | None ->
      if Cost_key.Id_tbl.length t.ids >= id_capacity then begin
        Cost_key.Id_tbl.reset t.ids;
        t.stored <- []
      end;
      Cost_key.Id_tbl.add t.ids id id;
      id

(* Plan-choice memo, engaged only when the caller passes the statement's
   cost id (serve's ingest fast path): the id's plan slot, read with no
   table lookup.  The key is self-fencing against statistics churn, and a
   plan hits only under the stamp of the design it was chosen under, which
   [design_changed] replaces, so a hit is the bit-identical plan a fresh
   choice would make: plans carry no literal, and execution takes the
   statement's own through {!Filter.seek}.  The stamp is this database's,
   so an id run against another database misses.  A hit counts the plan
   that runs ([Plan.count_choice]), as the planner counts its own. *)
let read_plan t ~statement_key statement =
  match statement_key with
  | None -> fresh_plan t statement
  | Some (id : Cost_key.id) -> (
      match id.Cost_key.memo with
      | Cost_key.Plan { stamp; plan } when stamp == t.stamp ->
          t.plan_hits <- t.plan_hits + 1;
          Obs.Counter.incr m_plan_hits;
          let plan = runnable t statement plan in
          Plan.count_choice plan;
          plan
      | Cost_key.Plan _ | Cost_key.No_plan ->
          t.plan_misses <- t.plan_misses + 1;
          Obs.Counter.incr m_plan_misses;
          let plan = fresh_plan t statement in
          Cost_key.remember id t.stamp plan;
          t.plans_stored <- t.plans_stored + 1;
          t.stored <- id :: t.stored;
          plan)

type plan_memo_stats = { hits : int; misses : int; invalidations : int; entries : int }

let plan_memo_stats t =
  {
    hits = t.plan_hits;
    misses = t.plan_misses;
    invalidations = t.plan_invalidations;
    entries = t.plans_stored;
  }

let run ?statement_key t p =
  let logical_before = logical_io t in
  let physical_before = disk_reads t in
  let rows, affected, plan =
    match p.statement with
    | Ast.Select select ->
        let plan = read_plan t ~statement_key p.statement in
        (run_select (table_state t select.Ast.table) p select plan.Plan.path, 0, Some plan)
    | Ast.Select_agg { table; group_by; aggregate; where } ->
        let plan = read_plan t ~statement_key p.statement in
        (run_select_agg t p ~table ~group_by ~aggregate ~where plan.Plan.path, 0, Some plan)
    | Ast.Insert { table; values } ->
        let state = table_state t table in
        insert_row state (Array.of_list values);
        invalidate_stats state;
        ([], 1, None)
    | Ast.Delete { table; where } ->
        let affected, plan = run_delete t p ~table ~where in
        ([], affected, Some plan)
    | Ast.Update { table; assignments; where } ->
        let affected, plan = run_update t p ~table ~assignments ~where in
        ([], affected, Some plan)
  in
  {
    rows;
    affected;
    plan;
    logical_io = logical_io t - logical_before;
    physical_io = disk_reads t - physical_before;
  }

let execute ?statement_key ?(skip_check = false) t statement =
  if not skip_check then Check.statement_exn (tables t) statement;
  run ?statement_key:(Option.map (cost_id t) statement_key) t (prepare statement)

let execute_sql t sql = execute t (Parser.parse_exn sql)
