(* Naive oracles shared by the tests that pin an optimised path to them.

   EXEC: the per-design fold the cost model used before costing was split
   into per-structure atoms.  One pass over the design per statement:
   every index on the statement's table is tried by seek and then by
   covering scan, and every view that answers an aggregate by probe or
   scan, each replacing the incumbent plan only when strictly cheaper;
   maintenance is summed over the table's indexes, then over its views.
   The formulas of the individual plans are the cost model's own; what
   this pins is how they combine.

   Problem.build: the matrices are defined as

     exec.(s).(c)  = left fold of [statement_cost] (below) over step s
                     under configuration c's design
     trans.(i).(j) = Cost_model.transition_cost from design i to design j

   with no clustering, atoms, memo, session state or domain split between
   them and the formulas.  Every optimisation of the build must leave its
   matrices equal to these, bit for bit.

   Statistics: a histogram is the sorted-array bucketing loop over a
   copy of the column, and a table's statistics are that loop over every
   integer column of a full heap scan.  The maintained value counts must
   give snapshots with the same fingerprint.

   Execution: a SELECT decodes every heap row and evaluates each
   predicate on the decoded tuple, visiting the rows in the order the
   plan's access path does.  The executor's compiled filters and scan
   kernels must return the same rows in the same order.

   Heap scans: the scan kernel with no ranges, so no page is ever
   skipped, and each (offset, lo, hi) triple tested on the raw bytes of
   every live record.  A scan with ranges, and the per-page synopses that
   let it skip pages, must return the same records in the same order for
   the same page accesses.

   B-tree walks: the range walk with no ranges, so no leaf consults a
   synopsis, and each (offset, lo, hi) triple tested on the raw bytes of
   every entry in the key range.  A walk with ranges, and the per-leaf
   synopses that let it skip a leaf's entries, must return the same
   entries in the same order for the same page accesses.

   Index builds: every live heap row decoded, its key columns and rid
   gathered into one array per entry, the arrays sorted by comparator and
   bulk-loaded.  [Index.build] must give the same entries in the same
   order for the same logical I/O.

   Cost keys: the statement's cost identity printed as text, a decimal
   header and a hex selectivity per predicate.  The packed key must be
   equal exactly when this one is.

   Drift: a window's profile keyed afresh under one snapshot, and the
   L1 distance between two windows as an exact rational over their key
   strings, counted in association lists. *)

module Ast = Cddpd_sql.Ast
module Schema = Cddpd_catalog.Schema
module Tuple = Cddpd_storage.Tuple
module Heap_file = Cddpd_storage.Heap_file
module Btree = Cddpd_storage.Btree
module Histogram = Cddpd_engine.Histogram
module Table_stats = Cddpd_engine.Table_stats
module Database = Cddpd_engine.Database
module Cost_model = Cddpd_engine.Cost_model
module Config_space = Cddpd_core.Config_space
module Problem = Cddpd_core.Problem
module Plan = Cddpd_engine.Plan
module Design = Cddpd_catalog.Design
module Structure = Cddpd_catalog.Structure
module Index_def = Cddpd_catalog.Index_def
module View_def = Cddpd_catalog.View_def
module Cost_key = Cddpd_engine.Cost_key
module Compress = Cddpd_workload.Compress
module Drift = Cddpd_serve.Drift

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let matrix_same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun r1 r2 -> Array.length r1 = Array.length r2 && Array.for_all2 same_bits r1 r2)
       a b

(* -- EXEC: the per-design fold -------------------------------------------------- *)

let consider candidate best =
  match candidate with
  | Some plan when plan.Plan.estimated_cost < best.Plan.estimated_cost -> plan
  | Some _ | None -> best

(* The chosen plan: the SELECT's own, the aggregate's, or the victim
   search of a DELETE/UPDATE. *)
let plan params stats design statement =
  let b = Cost_model.bind stats statement in
  let table = Ast.table_of statement in
  match statement with
  | Ast.Select_agg _ ->
      Design.fold_views
        (fun view best ->
          if String.equal (View_def.table view) table then
            consider (Cost_model.view_plan params b view) best
          else best)
        design (Cost_model.base_plan params b)
  | Ast.Select _ | Ast.Insert _ | Ast.Delete _ | Ast.Update _ ->
      Design.fold_indexes
        (fun index best ->
          if String.equal (Index_def.table index) table then
            best
            |> consider (Cost_model.index_seek_plan params b index)
            |> consider (Cost_model.index_only_scan_plan params b index)
          else best)
        design (Cost_model.base_plan params b)

let maintenance params stats design table statement =
  let b = Cost_model.bind stats statement in
  let index_part =
    Design.fold_indexes
      (fun index acc ->
        if String.equal (Index_def.table index) table then
          acc +. Cost_model.maintenance_term params b (Structure.index index)
        else acc)
      design 0.0
  in
  Design.fold_views
    (fun view acc ->
      if String.equal (View_def.table view) table then
        acc +. Cost_model.maintenance_term params b (Structure.view view)
      else acc)
    design index_part

let statement_cost params stats design statement =
  let find () = plan params stats design statement in
  let table = Ast.table_of statement in
  let dml () =
    let find = find () in
    (* The victim search's rows: the WHERE clause's estimate. *)
    find.Plan.estimated_cost
    +. find.Plan.estimated_rows
       *. (params.Cost_model.page_io +. maintenance params stats design table statement)
  in
  match statement with
  | Ast.Select _ | Ast.Select_agg _ -> (find ()).Plan.estimated_cost
  | Ast.Insert _ -> params.Cost_model.page_io +. maintenance params stats design table statement
  | Ast.Delete _ -> dml ()
  | Ast.Update _ -> 2.0 *. dml ()

let exec params ~stats_of design step =
  Array.fold_left
    (fun acc statement ->
      acc +. statement_cost params (stats_of (Ast.table_of statement)) design statement)
    0.0 step

(* The oracle instance over the steps, space and initial configuration of
   [built]: solving it is the reference for solving [built]. *)
let problem params ~stats_of (built : Problem.t) =
  let designs = Config_space.designs built.Problem.space in
  Problem.of_matrices ~steps:built.Problem.steps ~space:built.Problem.space
    ~initial:built.Problem.initial
    ~exec:
      (Array.map
         (fun step -> Array.map (fun design -> exec params ~stats_of design step) designs)
         built.Problem.steps)
    ~trans:
      (Array.map
         (fun from_design ->
           Array.map
             (fun to_design -> Cost_model.transition_cost params ~stats_of ~from_design ~to_design)
             designs)
         designs)
    ~count_initial_change:built.Problem.count_initial_change ()

(* Whether both matrices of [built] equal the oracle's, bit for bit. *)
let matches params ~stats_of (built : Problem.t) =
  let reference = problem params ~stats_of built in
  matrix_same_bits built.Problem.exec reference.Problem.exec
  && matrix_same_bits built.Problem.trans reference.Problem.trans

(* -- statistics ------------------------------------------------------------ *)

let histogram ?(buckets = 64) values =
  if buckets <= 0 then invalid_arg "Naive.histogram: buckets <= 0";
  let sorted = Array.copy values in
  Array.sort Int.compare sorted;
  let n = Array.length sorted in
  let out = ref [] in
  let per_bucket = max 1 ((n + buckets - 1) / buckets) in
  let i = ref 0 in
  while !i < n do
    let start = !i in
    let stop = min n (start + per_bucket) in
    (* Extend the bucket so equal values never straddle a boundary. *)
    let stop = ref stop in
    while !stop < n && sorted.(!stop) = sorted.(!stop - 1) do
      incr stop
    done;
    let stop = !stop in
    let distinct = ref 1 in
    for j = start + 1 to stop - 1 do
      if sorted.(j) <> sorted.(j - 1) then incr distinct
    done;
    out :=
      { Histogram.lo = sorted.(start); hi = sorted.(stop - 1); count = stop - start; distinct = !distinct }
      :: !out;
    i := stop
  done;
  Histogram.of_buckets (Array.of_list (List.rev !out))

let fingerprint_bytes h =
  let buf = Buffer.create 256 in
  Histogram.add_fingerprint_bytes buf h;
  Buffer.contents buf

(* A full heap scan, the naive bucketing per integer column. *)
let table_stats db table =
  let schema = Option.get (Database.schema db table) in
  let int_columns =
    List.filter_map
      (fun (c : Schema.column) ->
        match c.Schema.ty with
        | Schema.Int_type -> Some (c.Schema.name, Schema.column_index_exn schema c.Schema.name)
        | Schema.Text_type -> None)
      schema.Schema.columns
  in
  let rows = ref [] in
  Database.scan db table (fun tuple -> rows := tuple :: !rows);
  let rows = Array.of_list !rows in
  let histograms =
    List.map
      (fun (name, pos) -> (name, histogram (Array.map (fun row -> Tuple.int_exn row.(pos)) rows)))
      int_columns
  in
  Table_stats.make ~row_count:(Array.length rows) ~page_count:(Database.page_count db table)
    ~histograms

(* -- execution -------------------------------------------------------------- *)

let satisfies schema tuple pred =
  let field column = tuple.(Schema.column_index_exn schema column) in
  match pred with
  | Ast.Cmp { column; op; value } -> (
      let c = Tuple.compare_value (field column) value in
      match op with
      | Ast.Eq -> c = 0
      | Ast.Lt -> c < 0
      | Ast.Le -> c <= 0
      | Ast.Gt -> c > 0
      | Ast.Ge -> c >= 0)
  | Ast.Between { column; low; high } ->
      Tuple.compare_value (field column) low >= 0 && Tuple.compare_value (field column) high <= 0

(* The rows [select] returns when run through [path].  A full scan visits
   the heap in storage order.  An index path visits its entries in key
   order: the key columns' values, ties broken by rid, and the heap is
   append-only, so rid order is storage order and a stable sort of the
   storage-order rows by the key columns gives the index's order. *)
let select db (select : Ast.select) path =
  let schema = Option.get (Database.schema db select.Ast.table) in
  let rows = ref [] in
  Database.scan db select.Ast.table (fun tuple -> rows := tuple :: !rows);
  let rows = List.rev !rows in
  let visited =
    match path with
    | Plan.Full_scan -> rows
    | Plan.Index_seek { index; _ } | Plan.Index_only_scan { index } ->
        let positions = List.map (Schema.column_index_exn schema) (Index_def.columns index) in
        let key tuple = List.map (fun pos -> tuple.(pos)) positions in
        List.stable_sort (fun a b -> List.compare Tuple.compare_value (key a) (key b)) rows
    | Plan.View_probe _ -> invalid_arg "Naive.select: view plan"
  in
  let project tuple =
    match select.Ast.projection with
    | Ast.Star -> tuple
    | Ast.Columns cs ->
        Array.of_list (List.map (fun c -> tuple.(Schema.column_index_exn schema c)) cs)
  in
  visited
  |> List.filter (fun tuple -> List.for_all (satisfies schema tuple) select.Ast.where)
  |> List.map project

(* -- heap scans --------------------------------------------------------------- *)

(* The records a scan with [triples] (as [Ranges.of_list] takes them)
   returns, as (page, slot, tuple) in storage order. *)
let heap_scan heap triples =
  let out = ref [] in
  Heap_file.scan heap ~ranges:Cddpd_storage.Ranges.none (fun buf base page slot ->
      if
        List.for_all
          (fun (off, lo, hi) ->
            let v = Int64.to_int (Bytes.get_int64_le buf (base + off)) in
            lo <= v && v <= hi)
          triples
      then out := (page, slot, Tuple.decode_at buf ~base) :: !out);
  List.rev !out

(* -- B-tree walks ------------------------------------------------------------- *)

(* The entries in [lo, hi] that satisfy [triples] (as [Ranges.of_list]
   takes them), materialised as keys in walk order. *)
let btree_walk tree ~key_len ~lo ~hi triples =
  let out = ref [] in
  Btree.iter_range_slices tree ~lo ~hi ~ranges:Cddpd_storage.Ranges.none (fun buf pos ->
      if
        List.for_all
          (fun (off, lo, hi) ->
            let v = Int64.to_int (Bytes.get_int64_le buf (pos + off)) in
            lo <= v && v <= hi)
          triples
      then
        out :=
          Array.init key_len (fun j -> Int64.to_int (Bytes.get_int64_le buf (pos + (8 * j))))
          :: !out);
  List.rev !out

(* -- index builds ------------------------------------------------------------ *)

let index_build pool schema heap columns =
  let positions = List.map (Schema.column_index_exn schema) columns in
  let keys = ref [] in
  Heap_file.iter heap (fun rid tuple ->
      let values = List.map (fun pos -> Tuple.int_exn tuple.(pos)) positions in
      keys := Array.of_list (values @ [ rid.Heap_file.page; rid.Heap_file.slot ]) :: !keys);
  let keys = Array.of_list !keys in
  Array.sort (fun a b -> List.compare Int.compare (Array.to_list a) (Array.to_list b)) keys;
  Btree.bulk_load pool ~key_len:(List.length positions + 2) (Array.concat (Array.to_list keys))

(* -- cost keys ---------------------------------------------------------------- *)

let printed_value_kind v = match v with Tuple.Int _ -> "i" | Tuple.Text _ -> "t"

let printed_op op =
  match op with Ast.Eq -> "=" | Ast.Lt -> "<" | Ast.Le -> "l" | Ast.Gt -> ">" | Ast.Ge -> "g"

let printed_pred stats pred =
  let shape =
    match pred with
    | Ast.Cmp { column; op; value } -> printed_op op ^ column ^ ":" ^ printed_value_kind value
    | Ast.Between { column; low; high } ->
        "b" ^ column ^ ":" ^ printed_value_kind low ^ printed_value_kind high
  in
  Printf.sprintf "%s#%Lx;" shape
    (Int64.bits_of_float (Table_stats.predicate_selectivity stats pred))

let printed_key stats stmt =
  let preds where = String.concat "" (List.map (printed_pred stats) where) in
  Printf.sprintf "%d.%d.%d@" (Table_stats.row_count stats) (Table_stats.page_count stats)
    (Table_stats.n_histograms stats)
  ^
  match stmt with
  | Ast.Select { projection; table; where } ->
      let projection =
        match projection with Ast.Star -> "*" | Ast.Columns cs -> String.concat "," cs
      in
      Printf.sprintf "S:%s:%s:%s" table projection (preds where)
  | Ast.Select_agg { table; group_by; where; _ } ->
      let groups =
        match Table_stats.histogram stats group_by with
        | Some h -> Histogram.n_distinct h
        | None -> -1
      in
      Printf.sprintf "A:%s:%s:%d:%s" table group_by groups (preds where)
  | Ast.Insert { table; _ } -> "N:" ^ table
  | Ast.Delete { table; where } -> Printf.sprintf "D:%s:%s" table (preds where)
  | Ast.Update { table; where; _ } -> Printf.sprintf "U:%s:%s" table (preds where)

(* -- drift -------------------------------------------------------------------- *)

let drift_profile ~stats statements =
  let keys = Array.map (fun s -> Cost_key.id (Cost_key.statement stats s)) statements in
  Drift.profile_of_clustering ~keys
    (Compress.cluster_by ~hash:Cost_key.id_hash ~equal:Cost_key.id_equal keys)

let drifted ?(threshold = Drift.default_threshold) a b = Drift.distance a b > threshold

(* The L1 distance between the key frequencies of two windows as
   (numerator, denominator): [Σ |ca·nb − cb·na|] over every key of
   either window, over [na·nb]. *)
let drift_rational a b =
  let count keys =
    Array.fold_left
      (fun acc k ->
        match List.assoc_opt k acc with
        | Some n -> (k, n + 1) :: List.remove_assoc k acc
        | None -> (k, 1) :: acc)
      [] keys
  in
  let ca = count a and cb = count b in
  let na = Array.length a and nb = Array.length b in
  let of_ counts k = Option.value ~default:0 (List.assoc_opt k counts) in
  let keys = List.sort_uniq String.compare (List.map fst ca @ List.map fst cb) in
  ( List.fold_left (fun acc k -> acc + abs ((of_ ca k * nb) - (of_ cb k * na))) 0 keys,
    na * nb )
