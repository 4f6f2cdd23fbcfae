(* Engine tests: histograms, semantic checking, planner decisions, executor
   correctness against a naive reference implementation, and physical
   design migration. *)

module Tuple = Cddpd_storage.Tuple
module Schema = Cddpd_catalog.Schema
module Index_def = Cddpd_catalog.Index_def
module Design = Cddpd_catalog.Design
module Ast = Cddpd_sql.Ast
module Histogram = Cddpd_engine.Histogram
module Table_stats = Cddpd_engine.Table_stats
module Check = Cddpd_engine.Check
module Plan = Cddpd_engine.Plan
module Filter = Cddpd_engine.Filter
module Database = Cddpd_engine.Database
module Rng = Cddpd_util.Rng

(* -- Histogram ----------------------------------------------------------------- *)

let test_histogram_empty () =
  let h = Histogram.build [||] in
  Alcotest.(check int) "no values" 0 (Histogram.n_values h);
  Alcotest.(check (float 0.0)) "eq selectivity" 0.0 (Histogram.selectivity_eq h 5);
  Alcotest.(check bool) "no min" true (Histogram.min_value h = None)

let test_histogram_uniform_eq () =
  (* 1000 values over [0,100): each value ~1% of rows. *)
  let values = Array.init 1000 (fun i -> i mod 100) in
  let h = Histogram.build values in
  let sel = Histogram.selectivity_eq h 42 in
  Alcotest.(check bool) "eq selectivity near 1%" true (sel > 0.005 && sel < 0.02);
  Alcotest.(check int) "distinct" 100 (Histogram.n_distinct h)

let test_histogram_eq_out_of_range () =
  let h = Histogram.build (Array.init 100 (fun i -> i)) in
  let sel = Histogram.selectivity_eq h 10_000 in
  Alcotest.(check bool) "tiny but nonzero" true (sel > 0.0 && sel < 0.01)

let test_histogram_range () =
  let values = Array.init 1000 (fun i -> i) in
  let h = Histogram.build values in
  let sel = Histogram.selectivity_range h ~lo:(Some 0) ~hi:(Some 499) in
  Alcotest.(check bool) "half the rows" true (sel > 0.45 && sel < 0.55);
  let all = Histogram.selectivity_range h ~lo:None ~hi:None in
  Alcotest.(check bool) "open range = all" true (all > 0.99)

let test_histogram_minmax () =
  let h = Histogram.build [| 5; 1; 9; 3 |] in
  Alcotest.(check (option int)) "min" (Some 1) (Histogram.min_value h);
  Alcotest.(check (option int)) "max" (Some 9) (Histogram.max_value h)

let test_histogram_skew () =
  (* 90% of rows are value 7. *)
  let values = Array.init 1000 (fun i -> if i < 900 then 7 else i) in
  let h = Histogram.build values in
  let sel7 = Histogram.selectivity_eq h 7 in
  Alcotest.(check bool) "skewed value dominates" true (sel7 > 0.5)

let histogram_range_bounds_prop =
  QCheck.Test.make ~name:"range selectivity in [0,1] and monotone" ~count:200
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 1 200) (int_bound 1000)) (int_bound 1000))
    (fun (values, split) ->
      let h = Histogram.build (Array.of_list values) in
      let narrow = Histogram.selectivity_range h ~lo:(Some 0) ~hi:(Some split) in
      let wide = Histogram.selectivity_range h ~lo:(Some 0) ~hi:(Some (split + 100)) in
      narrow >= 0.0 && narrow <= 1.0 && wide >= narrow)

(* Reference selectivities: the linear fold over every bucket that the
   binary-searched lookups must reproduce bit for bit. *)
let reference_selectivity_eq h v =
  let total = Histogram.n_values h in
  if total = 0 then 0.0
  else
    let matching =
      Array.fold_left
        (fun acc (b : Histogram.bucket) ->
          if v >= b.lo && v <= b.hi then
            acc +. (float_of_int b.count /. float_of_int (max 1 b.distinct))
          else acc)
        0.0 (Histogram.buckets h)
    in
    let sel = matching /. float_of_int total in
    if sel <= 0.0 then 0.5 /. float_of_int total else min 1.0 sel

let reference_selectivity_range h ~lo ~hi =
  let total = Histogram.n_values h in
  if total = 0 then 0.0
  else
    let overlap (b : Histogram.bucket) =
      let b_lo = float_of_int b.lo and b_hi = float_of_int b.hi in
      let lo = match lo with None -> b_lo | Some v -> float_of_int v in
      let hi = match hi with None -> b_hi | Some v -> float_of_int v in
      if hi < b_lo || lo > b_hi then 0.0
      else if Float.equal b_hi b_lo then 1.0
      else (min hi b_hi -. max lo b_lo) /. (b_hi -. b_lo)
    in
    let matching =
      Array.fold_left
        (fun acc b -> acc +. (overlap b *. float_of_int b.Histogram.count))
        0.0 (Histogram.buckets h)
    in
    Float.max 0.0 (Float.min 1.0 (matching /. float_of_int total))

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let histogram_search_matches_fold_prop =
  let gen =
    QCheck.Gen.(
      quad
        (pair (int_range 1 64) (list_size (int_range 0 400) (int_range (-50) 600)))
        (int_range (-100) 700)
        (opt (int_range (-100) 700))
        (opt (int_range (-100) 700)))
  in
  QCheck.Test.make ~name:"binary-searched selectivities = linear fold (bit-identical)"
    ~count:500 (QCheck.make gen)
    (fun ((buckets, values), v, lo, hi) ->
      let h = Histogram.build ~buckets (Array.of_list values) in
      let lo, hi =
        match (lo, hi) with Some l, Some h when l > h -> (Some h, Some l) | bounds -> bounds
      in
      same_bits (Histogram.selectivity_eq h v) (reference_selectivity_eq h v)
      && same_bits
           (Histogram.selectivity_range h ~lo ~hi)
           (reference_selectivity_range h ~lo ~hi))

(* -- schema / check -------------------------------------------------------------- *)

let schema =
  Schema.table "t"
    [ ("a", Schema.Int_type); ("b", Schema.Int_type); ("name", Schema.Text_type) ]

let test_schema_lookups () =
  Alcotest.(check (option int)) "index of b" (Some 1) (Schema.column_index schema "b");
  Alcotest.(check (option int)) "unknown" None (Schema.column_index schema "zz");
  Alcotest.(check int) "arity" 3 (Schema.arity schema);
  Alcotest.(check bool) "mem" true (Schema.mem_column schema "name")

let test_schema_validate_tuple () =
  Alcotest.(check bool) "valid" true
    (Schema.validate_tuple schema [| Tuple.Int 1; Tuple.Int 2; Tuple.Text "x" |] = Ok ());
  Alcotest.(check bool) "wrong arity" true
    (Result.is_error (Schema.validate_tuple schema [| Tuple.Int 1 |]));
  Alcotest.(check bool) "wrong type" true
    (Result.is_error
       (Schema.validate_tuple schema [| Tuple.Text "x"; Tuple.Int 2; Tuple.Text "y" |]))

let test_check_statement () =
  let ok sql = Check.statement [ schema ] (Cddpd_sql.Parser.parse_exn sql) in
  Alcotest.(check bool) "valid select" true (ok "SELECT a FROM t WHERE b = 1" = Ok ());
  Alcotest.(check bool) "unknown table" true (Result.is_error (ok "SELECT a FROM nope"));
  Alcotest.(check bool) "unknown column" true
    (Result.is_error (ok "SELECT zz FROM t"));
  Alcotest.(check bool) "unknown predicate column" true
    (Result.is_error (ok "SELECT a FROM t WHERE zz = 1"));
  Alcotest.(check bool) "type mismatch" true
    (Result.is_error (ok "SELECT a FROM t WHERE a = 'text'"));
  Alcotest.(check bool) "text ok" true (ok "SELECT a FROM t WHERE name = 'x'" = Ok ());
  Alcotest.(check bool) "insert ok" true (ok "INSERT INTO t VALUES (1, 2, 'x')" = Ok ());
  Alcotest.(check bool) "insert arity" true
    (Result.is_error (ok "INSERT INTO t VALUES (1, 2)"));
  Alcotest.(check bool) "insert type" true
    (Result.is_error (ok "INSERT INTO t VALUES (1, 'x', 'y')"))

(* -- database fixtures ------------------------------------------------------------ *)

let paper_schema =
  Schema.table "t"
    [
      ("a", Schema.Int_type);
      ("b", Schema.Int_type);
      ("c", Schema.Int_type);
      ("d", Schema.Int_type);
    ]

let make_db ?(rows = 3000) ?(value_range = 50) () =
  let db = Database.create ~pool_capacity:1024 [ paper_schema ] in
  let rng = Rng.create 7 in
  let data =
    Array.init rows (fun _ ->
        Array.init 4 (fun _ -> Tuple.Int (Rng.int rng value_range)))
  in
  Database.load db ~table:"t" data;
  (db, data)

let index columns = Index_def.make ~table:"t" ~columns

let rows_sorted result = List.sort compare result.Database.rows

(* Reference implementation: filter + project in plain OCaml. *)
let reference_select data (select : Ast.select) =
  let pos c = Schema.column_index_exn paper_schema c in
  let matches tuple =
    List.for_all
      (fun pred ->
        match pred with
        | Ast.Cmp { column; op; value } -> (
            let v = tuple.(pos column) in
            let c = Tuple.compare_value v value in
            match op with
            | Ast.Eq -> c = 0
            | Ast.Lt -> c < 0
            | Ast.Le -> c <= 0
            | Ast.Gt -> c > 0
            | Ast.Ge -> c >= 0)
        | Ast.Between { column; low; high } ->
            Tuple.compare_value tuple.(pos column) low >= 0
            && Tuple.compare_value tuple.(pos column) high <= 0)
      select.Ast.where
  in
  let project tuple =
    match select.Ast.projection with
    | Ast.Star -> tuple
    | Ast.Columns cs -> Array.of_list (List.map (fun c -> tuple.(pos c)) cs)
  in
  Array.to_list data |> List.filter matches |> List.map project |> List.sort compare

let check_query db data sql =
  let statement = Cddpd_sql.Parser.parse_exn sql in
  let select =
    match statement with
    | Ast.Select s -> s
    | Ast.Select_agg _ | Ast.Insert _ | Ast.Delete _ | Ast.Update _ ->
        Alcotest.fail "not select"
  in
  let result = Database.execute db statement in
  let expected = reference_select data select in
  Alcotest.(check int)
    (Printf.sprintf "row count for %s" sql)
    (List.length expected) (List.length result.Database.rows);
  if rows_sorted result <> expected then Alcotest.failf "rows differ for %s" sql

(* -- planner decisions -------------------------------------------------------------- *)

let plan_of db sql =
  let result = Database.execute_sql db sql in
  match result.Database.plan with
  | Some plan -> plan.Plan.path
  | None -> Alcotest.fail "expected a plan"

let test_plan_no_index_scans () =
  let db, _ = make_db () in
  match plan_of db "SELECT a FROM t WHERE a = 5" with
  | Plan.Full_scan -> ()
  | Plan.Index_seek _ | Plan.Index_only_scan _ | Plan.View_probe _ ->
      Alcotest.fail "no index available"

let test_plan_seek_with_index () =
  let db, _ = make_db () in
  Database.build_index db (index [ "a" ]);
  match plan_of db "SELECT a FROM t WHERE a = 5" with
  | Plan.Index_seek { covering; _ } ->
      Alcotest.(check bool) "covering" true covering
  | Plan.Full_scan | Plan.Index_only_scan _ | Plan.View_probe _ ->
      Alcotest.fail "expected a covering seek"

let test_plan_noncovering_seek () =
  (* Needs selective data: with few matching rows the rid fetches are
     cheaper than a scan. *)
  let db, _ = make_db ~value_range:5000 () in
  Database.build_index db (index [ "a" ]);
  match plan_of db "SELECT b FROM t WHERE a = 5" with
  | Plan.Index_seek { covering; _ } ->
      Alcotest.(check bool) "not covering" false covering
  | Plan.Full_scan | Plan.Index_only_scan _ | Plan.View_probe _ ->
      Alcotest.fail "expected a seek"

let test_plan_index_only_scan () =
  (* I(a,b) answers b-queries via a leaf scan — the key mechanism behind the
     paper's design choices. *)
  let db, _ = make_db () in
  Database.build_index db (index [ "a"; "b" ]);
  match plan_of db "SELECT b FROM t WHERE b = 5" with
  | Plan.Index_only_scan { index } ->
      Alcotest.(check string) "uses I(a,b)" "I(a,b)" (Index_def.name index)
  | Plan.Full_scan | Plan.Index_seek _ | Plan.View_probe _ ->
      Alcotest.fail "expected an index-only scan"

let test_plan_star_never_covered () =
  let db, _ = make_db ~value_range:5000 () in
  Database.build_index db (index [ "a"; "b" ]);
  match plan_of db "SELECT * FROM t WHERE a = 5" with
  | Plan.Index_seek { covering; _ } -> Alcotest.(check bool) "not covering" false covering
  | Plan.Full_scan | Plan.Index_only_scan _ | Plan.View_probe _ ->
      Alcotest.fail "expected a seek"

let test_plan_composite_prefix_and_range () =
  let db, _ = make_db () in
  Database.build_index db (index [ "a"; "b" ]);
  match plan_of db "SELECT a, b FROM t WHERE a = 5 AND b BETWEEN 3 AND 9" with
  | Plan.Index_seek { prefix = 1; range = true; covering = true; _ } -> ()
  | _ -> Alcotest.fail "expected covering seek with prefix and range"

let test_plan_prefers_seek_over_scan () =
  let db, _ = make_db () in
  Database.build_index db (index [ "b" ]);
  Database.build_index db (index [ "a"; "b" ]);
  (* b-queries: the dedicated I(b) seek should beat the I(a,b) leaf scan. *)
  match plan_of db "SELECT b FROM t WHERE b = 5" with
  | Plan.Index_seek { index; _ } ->
      Alcotest.(check string) "uses I(b)" "I(b)" (Index_def.name index)
  | Plan.Full_scan | Plan.Index_only_scan _ | Plan.View_probe _ ->
      Alcotest.fail "expected seek on I(b)"

(* -- executor correctness -------------------------------------------------------------- *)

let queries_to_check =
  [
    "SELECT a FROM t WHERE a = 5";
    "SELECT b FROM t WHERE b = 7";
    "SELECT a, b FROM t WHERE a = 3";
    "SELECT * FROM t WHERE c = 11";
    "SELECT d FROM t WHERE d > 45";
    "SELECT a FROM t WHERE a = 9 AND b = 9";
    "SELECT a, b FROM t WHERE a = 2 AND b BETWEEN 10 AND 30";
    "SELECT c FROM t WHERE c BETWEEN 0 AND 5";
    "SELECT a FROM t WHERE a = 12345";
    "SELECT a FROM t";
  ]

let run_queries_under_design design_columns () =
  let db, data = make_db () in
  List.iter (fun cols -> Database.build_index db (index cols)) design_columns;
  List.iter (check_query db data) queries_to_check

let test_exec_no_indexes () = run_queries_under_design [] ()

let test_exec_single_indexes () = run_queries_under_design [ [ "a" ]; [ "b" ] ] ()

let test_exec_composite_indexes () =
  run_queries_under_design [ [ "a"; "b" ]; [ "c"; "d" ] ] ()

let test_exec_all_indexes () =
  run_queries_under_design [ [ "a" ]; [ "b" ]; [ "c" ]; [ "d" ]; [ "a"; "b" ]; [ "c"; "d" ] ] ()

(* Property: every query answered identically under random designs. *)
let exec_design_independent_prop =
  QCheck.Test.make ~name:"results independent of physical design" ~count:30
    QCheck.(
      pair
        (QCheck.make
           QCheck.Gen.(
             map3
               (fun col v proj -> (col, v, proj))
               (oneofl [ "a"; "b"; "c"; "d" ])
               (int_bound 60)
               (oneofl [ `Same; `Other; `Star ])))
        (QCheck.make
           QCheck.Gen.(
             oneofl
               [ []; [ [ "a" ] ]; [ [ "a"; "b" ] ]; [ [ "c"; "d" ]; [ "b" ] ];
                 [ [ "a" ]; [ "b" ]; [ "c" ]; [ "d" ] ] ])))
    (fun ((col, v, proj), design) ->
      let db, data = make_db ~rows:800 () in
      let projection =
        match proj with
        | `Same -> col
        | `Other -> if col = "a" then "b" else "a"
        | `Star -> "*"
      in
      let sql = Printf.sprintf "SELECT %s FROM t WHERE %s = %d" projection col v in
      let before = Database.execute_sql db sql in
      List.iter (fun cols -> Database.build_index db (index cols)) design;
      let after = Database.execute_sql db sql in
      ignore data;
      rows_sorted before = rows_sorted after)

let test_exec_insert_updates_indexes () =
  let db, _ = make_db ~rows:500 () in
  Database.build_index db (index [ "a" ]);
  let before = Database.execute_sql db "SELECT a FROM t WHERE a = 49" in
  ignore (Database.execute_sql db "INSERT INTO t VALUES (49, 1, 2, 3)");
  let after = Database.execute_sql db "SELECT a FROM t WHERE a = 49" in
  Alcotest.(check int) "one more row"
    (List.length before.Database.rows + 1)
    (List.length after.Database.rows);
  (* Still answered by the index. *)
  (match after.Database.plan with
  | Some { Plan.path = Plan.Index_seek _; _ } -> ()
  | _ -> Alcotest.fail "expected index seek");
  Alcotest.(check int) "row_count bumped" 501 (Database.row_count db "t")

let test_exec_io_measured () =
  let db, _ = make_db () in
  let scan = Database.execute_sql db "SELECT a FROM t WHERE a = 5" in
  Database.build_index db (index [ "a" ]);
  let seek = Database.execute_sql db "SELECT a FROM t WHERE a = 5" in
  Alcotest.(check bool) "seek needs far less I/O" true
    (seek.Database.logical_io * 5 < scan.Database.logical_io);
  Alcotest.(check bool) "scan touches all pages" true (scan.Database.logical_io > 10)

let test_exec_semantic_error_raises () =
  let db, _ = make_db () in
  Alcotest.(check bool) "bad column rejected" true
    (match Database.execute_sql db "SELECT zz FROM t" with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* -- DML: DELETE / UPDATE -------------------------------------------------------------- *)

let count_rows db sql = List.length (Database.execute_sql db sql).Database.rows

let test_delete_basic () =
  let db, data = make_db ~rows:1000 () in
  let target = 7 in
  let expected =
    Array.to_list data
    |> List.filter (fun r -> r.(0) = Tuple.Int target)
    |> List.length
  in
  let result = Database.execute_sql db (Printf.sprintf "DELETE FROM t WHERE a = %d" target) in
  Alcotest.(check int) "affected count" expected result.Database.affected;
  Alcotest.(check int) "rows gone" 0
    (count_rows db (Printf.sprintf "SELECT a FROM t WHERE a = %d" target));
  Alcotest.(check int) "row_count updated" (1000 - expected) (Database.row_count db "t")

let test_delete_uses_index_and_maintains_it () =
  let db, _ = make_db ~rows:2000 ~value_range:500 () in
  Database.build_index db (index [ "a" ]);
  Database.build_index db (index [ "a"; "b" ]);
  let before = count_rows db "SELECT a FROM t WHERE a = 42" in
  Alcotest.(check bool) "something to delete" true (before > 0);
  let result = Database.execute_sql db "DELETE FROM t WHERE a = 42" in
  (* The find phase goes through an index (selective predicate). *)
  (match result.Database.plan with
  | Some { Plan.path = Plan.Index_seek _; _ } -> ()
  | Some { Plan.path = _; _ } | None -> Alcotest.fail "expected an index-driven delete");
  (* All access paths agree the rows are gone (indexes were maintained). *)
  Alcotest.(check int) "seek finds none" 0 (count_rows db "SELECT a FROM t WHERE a = 42");
  Database.migrate_to db Cddpd_catalog.Design.empty;
  Alcotest.(check int) "scan finds none" 0 (count_rows db "SELECT a FROM t WHERE a = 42")

let test_delete_everything () =
  let db, _ = make_db ~rows:300 () in
  let result = Database.execute_sql db "DELETE FROM t" in
  Alcotest.(check int) "all rows" 300 result.Database.affected;
  Alcotest.(check int) "empty table" 0 (Database.row_count db "t")

let test_update_basic () =
  let db, data = make_db ~rows:1000 () in
  let expected =
    Array.to_list data |> List.filter (fun r -> r.(1) = Tuple.Int 9) |> List.length
  in
  let result = Database.execute_sql db "UPDATE t SET a = 777777 WHERE b = 9" in
  Alcotest.(check int) "affected" expected result.Database.affected;
  Alcotest.(check int) "rows rewritten" expected
    (count_rows db "SELECT a FROM t WHERE a = 777777");
  Alcotest.(check int) "row count preserved" 1000 (Database.row_count db "t")

let test_update_maintains_indexes () =
  let db, _ = make_db ~rows:2000 ~value_range:500 () in
  Database.build_index db (index [ "a" ]);
  let moved = count_rows db "SELECT a FROM t WHERE a = 13" in
  ignore (Database.execute_sql db "UPDATE t SET a = 499999 WHERE a = 13");
  (* The index must reflect both the removal and the new key. *)
  Alcotest.(check int) "old key gone" 0 (count_rows db "SELECT a FROM t WHERE a = 13");
  Alcotest.(check int) "new key findable" moved
    (count_rows db "SELECT a FROM t WHERE a = 499999");
  let result = Database.execute_sql db "SELECT a FROM t WHERE a = 499999" in
  match result.Database.plan with
  | Some { Plan.path = Plan.Index_seek _; _ } -> ()
  | Some { Plan.path = _; _ } | None -> Alcotest.fail "expected an index seek"

let test_update_then_reference_agrees () =
  (* Full workload equivalence after a batch of mixed DML. *)
  let db, _ = make_db ~rows:1500 () in
  Database.build_index db (index [ "c"; "d" ]);
  ignore (Database.execute_sql db "UPDATE t SET d = 1 WHERE c = 5");
  ignore (Database.execute_sql db "DELETE FROM t WHERE c = 6");
  ignore (Database.execute_sql db "INSERT INTO t VALUES (1, 2, 6, 4)");
  (* Compare indexed vs scan answers for the touched region. *)
  let with_index = count_rows db "SELECT c, d FROM t WHERE c BETWEEN 4 AND 7" in
  Database.migrate_to db Cddpd_catalog.Design.empty;
  let without_index = count_rows db "SELECT c, d FROM t WHERE c BETWEEN 4 AND 7" in
  Alcotest.(check int) "index and heap agree after DML" without_index with_index

(* -- materialized views ----------------------------------------------------------------- *)

module View_def = Cddpd_catalog.View_def
module Structure = Cddpd_catalog.Structure

let view group_by = View_def.make ~table:"t" ~group_by

(* Reference aggregation over the raw data. *)
let reference_groups data ~group_pos ~agg =
  let groups = Hashtbl.create 64 in
  Array.iter
    (fun row ->
      let g = Tuple.int_exn row.(group_pos) in
      let delta = match agg with `Count -> 1 | `Sum pos -> Tuple.int_exn row.(pos) in
      Hashtbl.replace groups g (delta + Option.value ~default:0 (Hashtbl.find_opt groups g)))
    data;
  Hashtbl.fold (fun g v acc -> (g, v) :: acc) groups [] |> List.sort compare

let rows_as_pairs result =
  List.map
    (fun row ->
      match row with
      | [| Tuple.Int g; Tuple.Int v |] -> (g, v)
      | _ -> Alcotest.fail "unexpected aggregate row shape")
    result.Database.rows
  |> List.sort compare

let test_view_count_matches_scan () =
  let db, data = make_db ~rows:2000 ~value_range:50 () in
  let sql = "SELECT a, COUNT(*) FROM t GROUP BY a" in
  let scan_result = Database.execute_sql db sql in
  (match scan_result.Database.plan with
  | Some { Plan.path = Plan.Full_scan; _ } -> ()
  | _ -> Alcotest.fail "expected scan aggregation without a view");
  Database.migrate_to db (Design.empty |> Design.add_view (view "a"));
  let view_result = Database.execute_sql db sql in
  (match view_result.Database.plan with
  | Some { Plan.path = Plan.View_probe { point = false; _ }; _ } -> ()
  | _ -> Alcotest.fail "expected a view scan");
  Alcotest.(check bool) "same answers" true
    (rows_as_pairs scan_result = rows_as_pairs view_result);
  Alcotest.(check bool) "matches reference" true
    (rows_as_pairs view_result = reference_groups data ~group_pos:0 ~agg:`Count);
  Alcotest.(check bool) "view is cheaper" true
    (view_result.Database.logical_io < scan_result.Database.logical_io)

let test_view_sum_and_probe () =
  let db, data = make_db ~rows:2000 ~value_range:50 () in
  Database.migrate_to db (Design.empty |> Design.add_view (view "c"));
  let result = Database.execute_sql db "SELECT c, SUM(b) FROM t WHERE c = 7 GROUP BY c" in
  (match result.Database.plan with
  | Some { Plan.path = Plan.View_probe { point = true; _ }; _ } -> ()
  | _ -> Alcotest.fail "expected a view probe");
  let expected =
    reference_groups data ~group_pos:2 ~agg:(`Sum 1)
    |> List.filter (fun (g, _) -> g = 7)
  in
  Alcotest.(check bool) "probe matches reference" true (rows_as_pairs result = expected)

(* The probe takes the first group equality; the rest must still hold. *)
let test_view_probe_contradiction () =
  let db, _ = make_db ~rows:2000 ~value_range:50 () in
  let sql = "SELECT a, COUNT(*) FROM t WHERE a = 5 AND a = 6 GROUP BY a" in
  let via_scan = Database.execute_sql db sql in
  Database.migrate_to db (Design.empty |> Design.add_view (view "a"));
  let via_view = Database.execute_sql db sql in
  (match via_view.Database.plan with
  | Some { Plan.path = Plan.View_probe { point = true; _ }; _ } -> ()
  | _ -> Alcotest.fail "expected a view probe");
  Alcotest.(check int) "no group passes both" 0 (List.length via_view.Database.rows);
  Alcotest.(check bool) "view = scan" true (rows_as_pairs via_view = rows_as_pairs via_scan)

let test_view_not_used_for_filtered_aggregates () =
  (* A predicate on a non-group column disqualifies the view. *)
  let db, _ = make_db ~rows:1000 () in
  Database.migrate_to db (Design.empty |> Design.add_view (view "a"));
  let result = Database.execute_sql db "SELECT a, COUNT(*) FROM t WHERE b = 3 GROUP BY a" in
  match result.Database.plan with
  | Some { Plan.path = Plan.Full_scan; _ } -> ()
  | _ -> Alcotest.fail "expected scan aggregation"

let test_view_maintained_under_dml () =
  let db, _ = make_db ~rows:1500 ~value_range:40 () in
  Database.migrate_to db (Design.empty |> Design.add_view (view "a"));
  ignore (Database.execute_sql db "INSERT INTO t VALUES (7, 1, 1, 1)");
  ignore (Database.execute_sql db "INSERT INTO t VALUES (7, 1, 1, 1)");
  ignore (Database.execute_sql db "DELETE FROM t WHERE a = 8");
  ignore (Database.execute_sql db "UPDATE t SET a = 9 WHERE a = 10");
  let sql = "SELECT a, COUNT(*) FROM t GROUP BY a" in
  let via_view = Database.execute_sql db sql in
  (match via_view.Database.plan with
  | Some { Plan.path = Plan.View_probe _; _ } -> ()
  | _ -> Alcotest.fail "expected the view");
  Database.migrate_to db Design.empty;
  let via_scan = Database.execute_sql db sql in
  Alcotest.(check bool) "view stayed consistent through DML" true
    (rows_as_pairs via_view = rows_as_pairs via_scan)

let test_view_on_text_column_rejected () =
  let db =
    Database.create
      [ Schema.table "s" [ ("x", Schema.Int_type); ("n", Schema.Text_type) ] ]
  in
  Database.load db ~table:"s" [| [| Tuple.Int 1; Tuple.Text "a" |] |];
  Alcotest.(check bool) "text group rejected" true
    (match
       Database.migrate_to db
         (Design.empty |> Design.add_view (View_def.make ~table:"s" ~group_by:"n"))
     with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_view_in_design_name () =
  let d = Design.empty |> Design.add (index [ "a" ]) |> Design.add_view (view "c") in
  Alcotest.(check string) "design name" "{I(a), MV(c)}" (Design.name d);
  Alcotest.(check int) "cardinality" 2 (Design.cardinality d);
  Alcotest.(check int) "one index" 1 (List.length (Design.indexes d));
  Alcotest.(check int) "one view" 1 (List.length (Design.views d))

(* Model-based property: a view maintained through random DML always equals
   fresh aggregation of the surviving rows. *)
let view_maintenance_prop =
  QCheck.Test.make ~name:"view stays consistent under random insert/delete" ~count:40
    QCheck.(list (pair (int_bound 8) bool))
    (fun ops ->
      let db = Database.create ~pool_capacity:512 [ paper_schema ] in
      Database.load db ~table:"t"
        (Array.init 2048 (fun i ->
             [| Tuple.Int (i mod 8); Tuple.Int i; Tuple.Int 0; Tuple.Int 0 |]));
      Database.migrate_to db (Design.empty |> Design.add_view (view "a"));
      List.iter
        (fun (g, is_insert) ->
          if is_insert then
            ignore (Database.execute_sql db (Printf.sprintf "INSERT INTO t VALUES (%d, 1, 2, 3)" g))
          else
            ignore (Database.execute_sql db (Printf.sprintf "DELETE FROM t WHERE a = %d" g)))
        ops;
      let sql = "SELECT a, SUM(b) FROM t GROUP BY a" in
      let via_view = Database.execute_sql db sql in
      (match via_view.Database.plan with
      | Some { Plan.path = Plan.View_probe _; _ } -> ()
      | _ -> failwith "expected the view");
      Database.migrate_to db Design.empty;
      let via_scan = Database.execute_sql db sql in
      rows_as_pairs via_view = rows_as_pairs via_scan)

(* -- plan-choice memo --------------------------------------------------------------- *)

module Cost_key = Cddpd_engine.Cost_key
module Plan_cache = Cddpd_engine.Plan_cache

(* Drive the same statement through two identically-built databases — one
   passing [statement_key] (memo engaged), one never — and demand
   bit-identical plans, rows and I/O. *)
let memo_step memo fresh sql =
  let stmt = Cddpd_sql.Parser.parse_exn sql in
  let key = Cost_key.statement (Database.table_stats memo "t") stmt in
  (* keep the I/O comparison apples-to-apples: materialize any stale
     statistics outside the measured execution on both sides *)
  ignore (Database.table_stats fresh "t");
  let m = Database.execute ~statement_key:key memo stmt in
  let f = Database.execute fresh stmt in
  if m.Database.plan <> f.Database.plan then Alcotest.failf "plans differ for %s" sql;
  Alcotest.(check int)
    (Printf.sprintf "io for %s" sql)
    f.Database.logical_io m.Database.logical_io;
  if rows_sorted m <> rows_sorted f then Alcotest.failf "rows differ for %s" sql

let test_plan_memo_equiv () =
  let mk () =
    let db, _ = make_db ~rows:2000 ~value_range:5000 () in
    Database.build_index db (index [ "a" ]);
    Database.analyze db;
    db
  in
  let memo = mk () in
  let fresh = mk () in
  let queries values =
    List.iter
      (fun v -> memo_step memo fresh (Printf.sprintf "SELECT b FROM t WHERE a = %d" v))
      values;
    List.iter
      (fun v ->
        memo_step memo fresh
          (Printf.sprintf "SELECT a FROM t WHERE a BETWEEN %d AND %d" v (v + 50)))
      values
  in
  (* Repeats with fresh literals: a memo hit's plan must seek with the
     statement's own literals, not the first statement's. *)
  queries [ 5; 9; 13; 5; 9 ];
  let warm = Database.plan_cache_stats memo in
  Alcotest.(check bool) "memo hits happened" true (warm.Plan_cache.hits > 0);
  (* A design change fences the memo; choices must track the new design. *)
  Database.build_index memo (index [ "a"; "b" ]);
  Database.build_index fresh (index [ "a"; "b" ]);
  queries [ 5; 7; 5 ];
  let after_design = Database.plan_cache_stats memo in
  Alcotest.(check bool) "design change invalidated" true
    (after_design.Plan_cache.invalidations >= 1);
  (* DML bumps the statistics generation: keys computed under the new
     snapshot miss the memo and the fresh choices must still agree. *)
  ignore (Database.execute_sql memo "INSERT INTO t VALUES (1, 2, 3, 4)");
  ignore (Database.execute_sql fresh "INSERT INTO t VALUES (1, 2, 3, 4)");
  queries [ 5; 9; 5 ]

let test_plan_memo_view_probe () =
  let mk () =
    let db, _ = make_db ~rows:2000 ~value_range:50 () in
    Database.migrate_to db (Design.empty |> Design.add_view (view "a"));
    db
  in
  let memo = mk () in
  let fresh = mk () in
  List.iter
    (fun g ->
      let sql = Printf.sprintf "SELECT a, COUNT(*) FROM t WHERE a = %d GROUP BY a" g in
      memo_step memo fresh sql;
      (* Every statement shares one memo entry; the probe must still
         answer with THIS statement's group. *)
      let result =
        Database.execute ~statement_key:"probe" memo (Cddpd_sql.Parser.parse_exn sql)
      in
      (match result.Database.plan with
      | Some { Plan.path = Plan.View_probe { point = true; _ }; _ } -> ()
      | _ -> Alcotest.fail "expected a view probe");
      match rows_as_pairs result with
      | [ (v, _) ] -> Alcotest.(check int) "the statement's group" g v
      | _ -> Alcotest.fail "expected one group row")
    [ 3; 4; 3; 5 ]

let test_stats_generation_fence () =
  let db, _ = make_db ~rows:100 () in
  let g0 = Database.stats_generation db "t" in
  ignore (Database.table_stats db "t");
  Alcotest.(check int) "lazy materialization does not bump" g0
    (Database.stats_generation db "t");
  ignore (Database.execute_sql db "INSERT INTO t VALUES (1, 2, 3, 4)");
  Alcotest.(check bool) "DML bumps" true (Database.stats_generation db "t" > g0);
  let g1 = Database.stats_generation db "t" in
  Database.analyze db;
  Alcotest.(check bool) "analyze bumps" true (Database.stats_generation db "t" > g1)

(* Failure-injection-adjacent stress: a buffer pool far smaller than the
   working set forces eviction on every scan; answers must not change and
   physical reads must appear. *)
let test_tiny_pool_correctness () =
  let make capacity =
    let db = Database.create ~pool_capacity:capacity [ paper_schema ] in
    let rng = Rng.create 21 in
    Database.load db ~table:"t"
      (Array.init 3000 (fun _ -> Array.init 4 (fun _ -> Tuple.Int (Rng.int rng 300))));
    Database.build_index db (index [ "a"; "b" ]);
    db
  in
  let big = make 4096 in
  let tiny = make 8 in
  List.iter
    (fun sql ->
      let expected = rows_sorted (Database.execute_sql big sql) in
      let got = Database.execute_sql tiny sql in
      if rows_sorted got <> expected then Alcotest.failf "answers differ for %s" sql)
    [
      "SELECT a FROM t WHERE a = 5";
      "SELECT b FROM t WHERE b = 9";
      "SELECT * FROM t WHERE c = 100";
      "SELECT a, COUNT(*) FROM t GROUP BY a";
    ];
  let result = Database.execute_sql tiny "SELECT c FROM t WHERE c = 7" in
  Alcotest.(check bool) "thrashing pool reads from disk" true
    (result.Database.physical_io > 0)

(* -- compiled filters and scan kernels vs the naive executor --------------------- *)

(* Two tables, each larger than its 8-frame pool: the paper's all-integer
   shape, whose predicates all become in-place ranges, and one with a text
   column before the integers, whose heap predicates all stay residual
   (their offsets vary per row) while its index entries still take
   ranges. *)
let oracle_rows = 2000
let oracle_value_range = 40

let text_schema =
  Schema.table "t"
    [
      ("name", Schema.Text_type);
      ("a", Schema.Int_type);
      ("b", Schema.Int_type);
      ("c", Schema.Int_type);
    ]

let oracle_db ~text designs =
  let schema = if text then text_schema else paper_schema in
  let db = Database.create ~pool_capacity:8 [ schema ] in
  let rng = Rng.create 13 in
  Database.load db ~table:"t"
    (Array.init oracle_rows (fun i ->
         let int () = Tuple.Int (Rng.int rng oracle_value_range) in
         if text then [| Tuple.Text (Printf.sprintf "k%d" (i mod 10)); int (); int (); int () |]
         else Array.init 4 (fun _ -> int ())));
  List.iter (fun cols -> Database.build_index db (index cols)) designs;
  db

(* [Index.build] reads key columns in place through the heap scan kernel;
   the naive build decodes every row.  On a heap with deleted slots, both
   give the same entries in the same order, the same tree height and the
   same logical I/O, for an all-integer table (keys at fixed offsets) and
   a text-first one (keys found by the field walk). *)
let test_index_build_matches_naive () =
  List.iter
    (fun (label, schema, columns) ->
      let pool = Cddpd_storage.Buffer_pool.create ~capacity:8 (Cddpd_storage.Disk.create ()) in
      let heap = Cddpd_storage.Heap_file.create pool in
      let rng = Rng.create 21 in
      let rids =
        Array.init 1500 (fun i ->
            let int () = Tuple.Int (Rng.int rng 60 - 10) in
            let row =
              match (List.hd schema.Schema.columns).Schema.ty with
              | Schema.Text_type ->
                  [| Tuple.Text (String.make (i mod 13) 'x'); int (); int (); int () |]
              | Schema.Int_type -> Array.init 4 (fun _ -> int ())
            in
            Cddpd_storage.Heap_file.insert heap row)
      in
      Array.iteri
        (fun i rid -> if i mod 7 = 3 then ignore (Cddpd_storage.Heap_file.delete heap rid))
        rids;
      let accesses () =
        let s = Cddpd_storage.Buffer_pool.stats pool in
        s.Cddpd_storage.Buffer_pool.hits + s.Cddpd_storage.Buffer_pool.misses
      in
      let measured f =
        let before = accesses () in
        let x = f () in
        (x, accesses () - before)
      in
      let built, built_io =
        measured (fun () -> Cddpd_engine.Index.build pool schema heap (index columns))
      in
      let naive, naive_io = measured (fun () -> Naive.index_build pool schema heap columns) in
      let key_len = List.length columns + 2 in
      let entries = ref [] in
      Cddpd_engine.Index.probe_slices built
        (Cddpd_engine.Index.bounds built Filter.unbounded)
        ~ranges:Cddpd_storage.Ranges.none
        (fun buf pos ->
          entries :=
            Array.init key_len (fun j -> Int64.to_int (Bytes.get_int64_le buf (pos + (8 * j))))
            :: !entries);
      let naive_entries = ref [] in
      Cddpd_storage.Btree.iter_all naive (fun key -> naive_entries := Array.copy key :: !naive_entries);
      Alcotest.(check int) (label ^ ": live entries") (1500 - 214) (List.length !entries);
      Alcotest.(check (list (array int))) (label ^ ": entries in order")
        (List.rev !naive_entries) (List.rev !entries);
      Alcotest.(check int) (label ^ ": height") (Cddpd_storage.Btree.height naive)
        (Cddpd_engine.Index.height built);
      Alcotest.(check int) (label ^ ": build I/O") naive_io built_io)
    [ ("all-int", paper_schema, [ "c"; "a" ]); ("text-first", text_schema, [ "b"; "a" ]) ]

let edge_literals = [ min_int; min_int + 1; -1; 0; oracle_value_range; max_int - 1; max_int ]

let gen_int_literal =
  QCheck.Gen.(
    frequency [ (4, int_range (-2) (oracle_value_range + 2)); (1, oneofl edge_literals) ])

let gen_predicate ~text =
  let open QCheck.Gen in
  let int_columns = if text then [ "a"; "b"; "c" ] else [ "a"; "b"; "c"; "d" ] in
  let op = oneofl [ Ast.Eq; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ] in
  let int_pred =
    let* column = oneofl int_columns in
    frequency
      [
        ( 5,
          map2 (fun op v -> Ast.Cmp { column; op; value = Tuple.Int v }) op gen_int_literal );
        (* bounds drawn independently, so often reversed *)
        ( 2,
          map2
            (fun lo hi -> Ast.Between { column; low = Tuple.Int lo; high = Tuple.Int hi })
            gen_int_literal gen_int_literal );
      ]
  in
  let text_pred =
    let literal = map (fun s -> Tuple.Text s) (oneofl [ ""; "k3"; "k7"; "zz" ]) in
    frequency
      [
        (3, map2 (fun op value -> Ast.Cmp { column = "name"; op; value }) op literal);
        (1, map2 (fun low high -> Ast.Between { column = "name"; low; high }) literal literal);
      ]
  in
  if text then frequency [ (3, int_pred); (1, text_pred) ] else int_pred

let gen_projection ~text =
  let columns = if text then [ "name"; "a"; "b"; "c" ] else [ "a"; "b"; "c"; "d" ] in
  QCheck.Gen.(
    frequency
      [
        (1, return Ast.Star);
        ( 3,
          map
            (fun picks ->
              match List.filteri (fun i _ -> List.nth picks i) columns with
              | [] -> Ast.Columns [ List.hd columns ]
              | cs -> Ast.Columns cs)
            (list_repeat (List.length columns) bool) );
      ])

let oracle_designs ~text =
  if text then [ []; [ [ "a" ] ]; [ [ "a"; "b" ] ]; [ [ "b"; "c" ]; [ "a" ] ] ]
  else
    [ []; [ [ "a" ] ]; [ [ "b" ] ]; [ [ "a"; "b" ] ]; [ [ "b"; "c"; "d" ] ]; [ [ "a" ]; [ "c"; "d" ] ] ]

(* WHERE clauses for seeks on I(a,b): each key column gets nothing, one
   equality, a repeated equality, one range (a comparison or a BETWEEN,
   often reversed) or two comparisons (so the seek takes no range), with
   literals that reach the int edges; sometimes a residual on c. *)
let gen_seek_where =
  let open QCheck.Gen in
  let cmp column op = map (fun v -> Ast.Cmp { column; op; value = Tuple.Int v }) gen_int_literal in
  let range column =
    frequency
      [
        (3, oneofl [ Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ] >>= cmp column);
        ( 2,
          map2
            (fun lo hi -> Ast.Between { column; low = Tuple.Int lo; high = Tuple.Int hi })
            gen_int_literal gen_int_literal );
      ]
  in
  let on column =
    frequency
      [
        (1, return []);
        (4, list_repeat 1 (cmp column Ast.Eq));
        (1, list_repeat 2 (cmp column Ast.Eq));
        (2, list_repeat 1 (range column));
        (1, list_repeat 2 (range column));
      ]
  in
  let* on_a = on "a" in
  let* on_b = on "b" in
  let* residual = frequency [ (3, return []); (1, list_repeat 1 (range "c")) ] in
  shuffle_l (on_a @ on_b @ residual)

let gen_seek_select =
  QCheck.Gen.map2
    (fun projection where -> { Ast.projection; table = "t"; where })
    (QCheck.Gen.oneofl
       [ Ast.Star; Ast.Columns [ "a" ]; Ast.Columns [ "b" ]; Ast.Columns [ "a"; "b" ] ])
    gen_seek_where

type oracle_case = {
  text : bool;
  design : string list list;
  selects : Ast.select list;
  dml_where : Ast.predicate list;
  seek_selects : Ast.select list;  (** run through the plan memo on I(a,b) *)
}

let gen_oracle_case =
  let open QCheck.Gen in
  let* text = bool in
  let* design = oneofl (oracle_designs ~text) in
  let where = list_size (int_range 0 3) (gen_predicate ~text) in
  let* selects =
    list_repeat 4
      (map2 (fun projection where -> { Ast.projection; table = "t"; where }) (gen_projection ~text) where)
  in
  let* dml_where = list_size (int_range 1 2) (gen_predicate ~text) in
  let* seek_selects = list_repeat 3 gen_seek_select in
  return { text; design; selects; dml_where; seek_selects }

let print_selects selects =
  String.concat "; " (List.map (fun s -> Cddpd_sql.Printer.to_string (Ast.Select s)) selects)

let print_oracle_case c =
  Printf.sprintf "%s table, design [%s]; %s; DELETE/UPDATE WHERE %s; memoized on I(a,b): %s"
    (if c.text then "text" else "int")
    (String.concat "; " (List.map (String.concat ",") c.design))
    (print_selects c.selects)
    (Cddpd_sql.Printer.to_string (Ast.Delete { table = "t"; where = c.dml_where }))
    (print_selects c.seek_selects)

(* A sibling of [select] under the same cost key: each literal replaced,
   where one exists, by another with bit-equal selectivity. *)
let seek_literals = List.init 45 (fun i -> i - 2) @ edge_literals

let sibling stats (select : Ast.select) =
  let sel pred = Int64.bits_of_float (Table_stats.predicate_selectivity stats pred) in
  let refresh pred =
    let candidates =
      match pred with
      | Ast.Cmp c -> List.map (fun v -> Ast.Cmp { c with value = Tuple.Int v }) seek_literals
      | Ast.Between b ->
          List.concat_map
            (fun lo ->
              List.map
                (fun hi -> Ast.Between { b with low = Tuple.Int lo; high = Tuple.Int hi })
                seek_literals)
            seek_literals
    in
    Option.value ~default:pred
      (List.find_opt (fun q -> q <> pred && Int64.equal (sel q) (sel pred)) candidates)
  in
  { select with Ast.where = List.map refresh select.Ast.where }

(* The memo arm: a sibling with fresh literals stores the plan under the
   shared key, the select then hits it, and must return the oracle's rows
   with the I/O fresh planning spends. *)
let memo_hit_matches_naive db (select : Ast.select) =
  let stats = Database.table_stats db "t" in
  let key s = Cost_key.statement stats (Ast.Select s) in
  let warm = sibling stats select in
  ignore (Database.execute ~statement_key:(key warm) db (Ast.Select warm));
  let hits = (Database.plan_cache_stats db).Plan_cache.hits in
  let memo = Database.execute ~statement_key:(key select) db (Ast.Select select) in
  let fresh = Database.execute db (Ast.Select select) in
  let path = (Option.get memo.Database.plan).Plan.path in
  String.equal (key warm) (key select)
  && (Database.plan_cache_stats db).Plan_cache.hits = hits + 1
  && memo.Database.plan = fresh.Database.plan
  && memo.Database.logical_io = fresh.Database.logical_io
  && memo.Database.rows = Naive.select db select path

(* Every select returns the oracle's rows in the oracle's order for the
   path the planner chose, and a full scan reads each heap page once;
   DELETE and UPDATE find exactly the oracle's victims.  The selects run
   again after the DML, over a heap with holes and appended rows. *)
let exec_matches_naive_prop =
  QCheck.Test.make ~name:"compiled filters = naive decode-and-evaluate" ~count:60
    (QCheck.make ~print:print_oracle_case gen_oracle_case)
    (fun c ->
      let db = oracle_db ~text:c.text c.design in
      let check_selects () =
        List.for_all
          (fun select ->
            let result = Database.execute db (Ast.Select select) in
            let path = (Option.get result.Database.plan).Plan.path in
            let rows_agree = result.Database.rows = Naive.select db select path in
            let io_agrees =
              match path with
              | Plan.Full_scan -> result.Database.logical_io = Database.page_count db "t"
              | Plan.Index_seek _ | Plan.Index_only_scan _ | Plan.View_probe _ -> true
            in
            rows_agree && io_agrees)
          c.selects
      in
      let victims () =
        List.length
          (Naive.select db { Ast.projection = Ast.Star; table = "t"; where = c.dml_where } Plan.Full_scan)
      in
      let before = check_selects () in
      let expected_updated = victims () in
      let updated =
        Database.execute db
          (Ast.Update { table = "t"; assignments = [ ("c", Tuple.Int 1) ]; where = c.dml_where })
      in
      let expected_deleted = victims () in
      let deleted = Database.execute db (Ast.Delete { table = "t"; where = c.dml_where }) in
      let seek_db = oracle_db ~text:false [ [ "a"; "b" ] ] in
      before
      && updated.Database.affected = expected_updated
      && deleted.Database.affected = expected_deleted
      && victims () = 0
      && check_selects ()
      && List.for_all (memo_hit_matches_naive seek_db) c.seek_selects)

(* -- prepared statements ------------------------------------------------------ *)

(* The aggregate a naive pass computes: the matching rows grouped by
   [group_by], one [| group; value |] row per group, in group order. *)
let naive_aggregate db ~group_by ~aggregate ~where =
  let schema = Option.get (Database.schema db "t") in
  let int_of column tuple = Tuple.int_exn tuple.(Schema.column_index_exn schema column) in
  let groups = Hashtbl.create 64 in
  Database.scan db "t" (fun tuple ->
      if List.for_all (Naive.satisfies schema tuple) where then begin
        let g = int_of group_by tuple in
        let delta = match aggregate with Ast.Count_star -> 1 | Ast.Sum c -> int_of c tuple in
        Hashtbl.replace groups g (delta + Option.value ~default:0 (Hashtbl.find_opt groups g))
      end);
  Hashtbl.fold (fun g v acc -> [| Tuple.Int g; Tuple.Int v |] :: acc) groups []
  |> List.sort compare

(* Heap-only, non-covering, covering and view designs, then a view alone
   and the first index again (a rebuilt index has a new layout): every
   handle meets the heap, several indexes' entries and a view, and moves
   between them.  The view on [a] stays across two designs, so the second
   scans it after a round's INSERT batch and DML have re-stored its
   rows. *)
let prepared_designs ~text =
  let design indexes views =
    List.fold_left (fun d v -> Design.add_view (view v) d)
      (List.fold_left (fun d cols -> Design.add (index cols) d) Design.empty indexes)
      views
  in
  let covering = if text then [ "a"; "b"; "c" ] else [ "a"; "b"; "c"; "d" ] in
  [
    design [] [];
    design [ [ "a" ] ] [];
    design [ covering ] [];
    design [ [ "b"; "c" ]; [ "a" ] ] [];
    design [ [ "a"; "b" ] ] [ "a" ];
    design [] [ "a" ];
    design [ [ "a" ] ] [];
  ]

(* Each select, aggregate and DELETE/UPDATE of an oracle case runs through
   one handle, again and again, on one database, as a fresh
   [Database.execute] on a twin fed the same operations, and as an
   [execute] with the read's cost key on a third.  Between rounds all
   three migrate to the next design, take an INSERT batch and the DML,
   and are analyzed.  Every run must match the fresh and keyed ones in
   rows, plan and logical I/O, and the naive rows, aggregates too in
   order: groups ascending, whether a view scan or the hash aggregate
   answered.  Reads through a handle pass their cost key hashed
   ([Cost_key.id]), as serve does, and the keyed twin passes the key
   string, so the plan memo is in play on both. *)
let prepared_matches_fresh_prop =
  QCheck.Test.make ~name:"prepared handle = fresh execute" ~count:30
    (QCheck.make ~print:print_oracle_case gen_oracle_case)
    (fun c ->
      let handled = oracle_db ~text:c.text []
      and fresh = oracle_db ~text:c.text []
      and keyed = oracle_db ~text:c.text [] in
      let aggregates =
        List.mapi
          (fun i (select : Ast.select) ->
            Ast.Select_agg
              {
                table = "t";
                group_by = "a";
                aggregate = (if i mod 2 = 0 then Ast.Count_star else Ast.Sum "b");
                where = select.Ast.where;
              })
          c.selects
        @ List.map
            (fun (select : Ast.select) ->
              (* only the equalities on the grouping column: a view answers it *)
              let on_a = function
                | Ast.Cmp { column = "a"; op = Ast.Eq; _ } -> true
                | Ast.Cmp _ | Ast.Between _ -> false
              in
              Ast.Select_agg
                {
                  table = "t";
                  group_by = "a";
                  aggregate = Ast.Sum "b";
                  where = List.filter on_a select.Ast.where;
                })
            c.seek_selects
      in
      let reads =
        List.map (fun s -> Ast.Select s) (c.selects @ c.seek_selects)
        @ aggregates
      in
      let writes =
        [
          Ast.Update { table = "t"; assignments = [ ("c", Tuple.Int 1) ]; where = c.dml_where };
          Ast.Delete { table = "t"; where = c.dml_where };
        ]
      in
      let handles = List.map (fun s -> (s, Database.prepare s)) (reads @ writes) in
      let agree statement (got : Database.exec_result) (want : Database.exec_result) =
        let sql = Cddpd_sql.Printer.to_string statement in
        if got.Database.rows <> want.Database.rows then
          QCheck.Test.fail_reportf "%s: rows differ from a fresh execute" sql;
        if got.Database.plan <> want.Database.plan then
          QCheck.Test.fail_reportf "%s: plan differs from a fresh execute" sql;
        if got.Database.logical_io <> want.Database.logical_io then
          QCheck.Test.fail_reportf "%s: logical I/O %d, fresh %d" sql got.Database.logical_io
            want.Database.logical_io;
        let naive_ok =
          match statement with
          | Ast.Select select ->
              let path = (Option.get got.Database.plan).Plan.path in
              got.Database.rows = Naive.select handled select path
          | Ast.Select_agg { group_by; aggregate; where; _ } ->
              got.Database.rows = naive_aggregate handled ~group_by ~aggregate ~where
          | Ast.Insert _ | Ast.Delete _ | Ast.Update _ -> true
        in
        if not naive_ok then QCheck.Test.fail_reportf "%s: rows differ from the naive rows" sql
      in
      let run (statement, handle) =
        let key =
          if Ast.is_read_only statement then
            Some (Cost_key.statement (Database.table_stats handled "t") statement)
          else None
        in
        let victims =
          match statement with
          | Ast.Update { where; _ } | Ast.Delete { where; _ } ->
              let star = { Ast.projection = Ast.Star; table = "t"; where } in
              List.length (Naive.select handled star Plan.Full_scan)
          | Ast.Select _ | Ast.Select_agg _ | Ast.Insert _ -> 0
        in
        let got = Database.run ?statement_key:(Option.map Cost_key.id key) handled handle in
        agree statement got (Database.execute fresh statement);
        agree statement got (Database.execute ?statement_key:key keyed statement);
        if got.Database.affected <> victims && not (Ast.is_read_only statement) then
          QCheck.Test.fail_reportf "%s: %d rows affected, naive %d"
            (Cddpd_sql.Printer.to_string statement) got.Database.affected victims
      in
      List.iteri
        (fun round design ->
          List.iter (fun db -> Database.migrate_to db design) [ handled; fresh; keyed ];
          List.iter (fun h -> if Ast.is_read_only (fst h) then (run h; run h)) handles;
          let batch =
            Array.init 50 (fun i ->
                let int k = Tuple.Int (((round * 50) + (i * k)) mod oracle_value_range) in
                if c.text then
                  [| Tuple.Text (Printf.sprintf "k%d" (i mod 10)); int 1; int 3; int 7 |]
                else [| int 1; int 3; int 7; int 11 |])
          in
          List.iter (fun db -> Database.load db ~table:"t" batch) [ handled; fresh; keyed ];
          List.iter (fun h -> if not (Ast.is_read_only (fst h)) then run h) handles;
          List.iter Database.analyze [ handled; fresh; keyed ])
        (prepared_designs ~text:c.text);
      true)

(* A key is the caller's promise that the statement matches the memoized
   plan.  A wrong one may cost I/O, never rows: a seek plan memoized for
   a two-column prefix meets statements of the same table and projection
   that lack a prefix literal, and each must return the oracle's rows
   through the memoized path without raising. *)
let test_plan_memo_wrong_key () =
  let db = oracle_db ~text:false [ [ "a"; "b" ] ] in
  let stats = Database.table_stats db "t" in
  List.iter
    (fun (warm, others) ->
      let warm = Cddpd_sql.Parser.parse_exn warm in
      let statement_key = Cost_key.statement stats warm in
      let plan = (Database.execute ~statement_key db warm).Database.plan in
      (match plan with
      | Some { Plan.path = Plan.Index_seek { prefix = 2; _ }; _ } -> ()
      | _ -> Alcotest.fail "expected a two-column seek");
      List.iter
        (fun sql ->
          let result = Database.execute ~statement_key db (Cddpd_sql.Parser.parse_exn sql) in
          let select =
            match Cddpd_sql.Parser.parse_exn sql with
            | Ast.Select s -> s
            | Ast.Select_agg _ | Ast.Insert _ | Ast.Delete _ | Ast.Update _ ->
                Alcotest.fail "not a select"
          in
          if result.Database.plan <> plan then Alcotest.failf "memo missed for %s" sql;
          if result.Database.rows <> Naive.select db select (Option.get plan).Plan.path then
            Alcotest.failf "rows differ for %s" sql)
        others)
    [
      ( "SELECT a, b FROM t WHERE a = 5 AND b = 7",
        [
          "SELECT a, b FROM t WHERE b = 7";
          "SELECT a, b FROM t WHERE a > 5 AND b = 7";
          "SELECT a, b FROM t WHERE a = 5";
          "SELECT a, b FROM t WHERE b BETWEEN 3 AND 9";
        ] );
      ( "SELECT * FROM t WHERE a = 5 AND b = 7",
        [ "SELECT * FROM t WHERE b = 7 AND c = 2"; "SELECT * FROM t WHERE a = 5 AND a = 6" ] );
    ];
  (* Aggregates: a memoized view plan meeting a statement the view does
     not answer (a predicate off the grouping column, or another grouping
     column) runs the hash aggregate over a full scan instead, so its
     rows are those of a fresh plan.  The memo hits, and the result
     reports (and [plan.chosen.*] counts) the full scan that ran, which
     under this design is also the fresh plan. *)
  let chosen path = Cddpd_obs.Counter.value (Cddpd_obs.Registry.counter ("plan.chosen." ^ path)) in
  let db, _ = make_db ~rows:2000 ~value_range:50 () in
  Database.migrate_to db (Design.empty |> Design.add_view (view "a"));
  List.iter
    (fun (warm, others) ->
      let statement_key = warm in
      let plan =
        (Database.execute ~statement_key db (Cddpd_sql.Parser.parse_exn warm)).Database.plan
      in
      (match plan with
      | Some { Plan.path = Plan.View_probe _; _ } -> ()
      | _ -> Alcotest.fail "expected a view plan");
      List.iter
        (fun sql ->
          let statement = Cddpd_sql.Parser.parse_exn sql in
          let fresh = Database.execute db statement in
          let hits = (Database.plan_cache_stats db).Plan_cache.hits in
          let scans = chosen "full_scan" and probes = chosen "view_probe" in
          let result =
            Cddpd_obs.Registry.with_enabled (fun () -> Database.execute ~statement_key db statement)
          in
          if (Database.plan_cache_stats db).Plan_cache.hits <> hits + 1 then
            Alcotest.failf "memo missed for %s" sql;
          (match result.Database.plan with
          | Some { Plan.path = Plan.Full_scan; _ } -> ()
          | Some _ | None -> Alcotest.failf "%s: reported plan is not the full scan that ran" sql);
          if result.Database.plan <> fresh.Database.plan then
            Alcotest.failf "%s: reported plan differs from a fresh plan" sql;
          if chosen "full_scan" <> scans + 1 || chosen "view_probe" <> probes then
            Alcotest.failf "%s: plan.chosen.* did not count the full scan" sql;
          if result.Database.rows <> fresh.Database.rows then Alcotest.failf "rows differ for %s" sql)
        others)
    [
      ( "SELECT a, COUNT(*) FROM t WHERE a = 5 GROUP BY a",
        [
          "SELECT a, COUNT(*) FROM t WHERE b = 5 GROUP BY a";
          "SELECT a, SUM(c) FROM t WHERE a = 5 AND b = 3 GROUP BY a";
          "SELECT b, COUNT(*) FROM t WHERE b = 5 GROUP BY b";
        ] );
      ( "SELECT a, COUNT(*) FROM t GROUP BY a",
        [
          "SELECT a, COUNT(*) FROM t WHERE b < 20 GROUP BY a";
          "SELECT a, SUM(d) FROM t WHERE a > 10 GROUP BY a";
          "SELECT c, COUNT(*) FROM t GROUP BY c";
        ] );
    ]

(* The operator-to-range conversion must not wrap at the int edges:
   [< min_int] and [> max_int] are empty (no row, selectivity 0, and a
   probe that fetches no more than the tree's height plus one page);
   [<= max_int] and [>= min_int] are everything. *)
let test_int_edge_bounds () =
  let db, data = make_db ~rows:5000 ~value_range:1000 () in
  Database.build_index db (index [ "a" ]);
  let stats = Database.table_stats db "t" in
  let cmp op v = Ast.Cmp { column = "a"; op; value = Tuple.Int v } in
  List.iter
    (fun (label, pred, expected_rows) ->
      let select = { Ast.projection = Ast.Columns [ "a" ]; table = "t"; where = [ pred ] } in
      let result = Database.execute db (Ast.Select select) in
      let plan = Option.get result.Database.plan in
      Alcotest.(check int) (label ^ ": rows") expected_rows (List.length result.Database.rows);
      let sel = Table_stats.predicate_selectivity stats pred in
      if expected_rows = 0 then begin
        Alcotest.(check (float 0.0)) (label ^ ": selectivity") 0.0 sel;
        Alcotest.(check bool) (label ^ ": estimate near zero") true (plan.Plan.estimated_rows < 1.0);
        (* I(a) over 5000 entries is two levels deep. *)
        Alcotest.(check bool) (label ^ ": at most height + 1 pages") true
          (result.Database.logical_io <= 3)
      end
      else Alcotest.(check bool) (label ^ ": selectivity ~1") true (sel > 0.99))
    [
      ("a < min_int", cmp Ast.Lt min_int, 0);
      ("a > max_int", cmp Ast.Gt max_int, 0);
      ("a <= max_int", cmp Ast.Le max_int, Array.length data);
      ("a >= min_int", cmp Ast.Ge min_int, Array.length data);
    ];
  (* The probe itself: an empty interval fetches no page at all. *)
  let pool = Cddpd_storage.Buffer_pool.create ~capacity:64 (Cddpd_storage.Disk.create ()) in
  let probe_index =
    Cddpd_engine.Index.build_of_rows pool paper_schema (index [ "a" ]) ~rows:data
      ~rids:(Array.mapi (fun i _ -> { Cddpd_storage.Heap_file.page = i / 100; slot = i mod 100 }) data)
  in
  List.iter
    (fun (label, bounds) ->
      let before = Cddpd_storage.Buffer_pool.stats pool in
      let rids =
        Cddpd_engine.Index.probe probe_index
          (Cddpd_engine.Index.bounds probe_index { Filter.eq = []; range = Some bounds })
      in
      let after = Cddpd_storage.Buffer_pool.stats pool in
      let accesses (s : Cddpd_storage.Buffer_pool.stats) = s.hits + s.misses in
      Alcotest.(check int) (label ^ ": probe rows") 0 (List.length rids);
      Alcotest.(check bool) (label ^ ": probe pages <= height + 1") true
        (accesses after - accesses before <= Cddpd_engine.Index.height probe_index + 1))
    [
      ("probe < min_int", Filter.interval Ast.Lt min_int);
      ("probe > max_int", Filter.interval Ast.Gt max_int);
    ]

(* An index-only equality scan of I(a,b) for [b = 7], where [b] holds
   i / 100 for the 2,000 entries: the walk fetches every leaf once after
   its descent, and skips the entry loop of each leaf whose synopsis
   excludes 7 (at most the one or two leaves holding b = 7, plus a hash
   collision or two, run theirs).  The same walk with a non-equality
   range fetches the same pages and skips nothing. *)
let test_index_only_leaves_skipped () =
  let pool = Cddpd_storage.Buffer_pool.create ~capacity:64 (Cddpd_storage.Disk.create ()) in
  let n = 2000 in
  let rows = Array.init n (fun i -> [| Tuple.Int i; Tuple.Int (i / 100); Tuple.Int 0; Tuple.Int 0 |]) in
  let rids = Array.init n (fun i -> { Cddpd_storage.Heap_file.page = i / 50; slot = i mod 50 }) in
  let built = Cddpd_engine.Index.build_of_rows pool paper_schema (index [ "a"; "b" ]) ~rows ~rids in
  let fetched = Cddpd_obs.Registry.counter "btree.leaves_fetched"
  and skipped = Cddpd_obs.Registry.counter "btree.leaves_skipped" in
  let scan where =
    let filter = Filter.compile (Cddpd_engine.Index.layout built) where in
    let accesses () =
      let s = Cddpd_storage.Buffer_pool.stats pool in
      s.Cddpd_storage.Buffer_pool.hits + s.Cddpd_storage.Buffer_pool.misses
    in
    let a0 = accesses () and f0 = Cddpd_obs.Counter.value fetched
    and s0 = Cddpd_obs.Counter.value skipped in
    let matches = ref 0 in
    Cddpd_obs.Registry.with_enabled (fun () ->
        Cddpd_engine.Index.probe_slices built
          (Cddpd_engine.Index.bounds built Filter.unbounded)
          ~ranges:(Filter.ranges filter)
          (fun buf pos -> if Filter.residual filter buf pos then incr matches));
    ( !matches,
      accesses () - a0,
      Cddpd_obs.Counter.value fetched - f0,
      Cddpd_obs.Counter.value skipped - s0 )
  in
  let height = Cddpd_engine.Index.height built in
  let b_eq = [ Ast.Cmp { column = "b"; op = Ast.Eq; value = Tuple.Int 7 } ] in
  let matches, pages, leaves, skipped_leaves = scan b_eq in
  Alcotest.(check int) "matches" 100 matches;
  Alcotest.(check int) "every leaf fetched once after the descent" (pages - height) leaves;
  Alcotest.(check bool)
    (Printf.sprintf "all but a few of %d leaves skipped (%d)" leaves skipped_leaves)
    true
    (skipped_leaves >= leaves - 4 && skipped_leaves <= leaves - 1);
  Alcotest.(check (list int)) "a second scan reads the memoized synopses alike"
    [ matches; pages; leaves; skipped_leaves ]
    (let m, p, l, k = scan b_eq in
     [ m; p; l; k ]);
  let m, p, l, k =
    scan
      [
        Ast.Cmp { column = "b"; op = Ast.Ge; value = Tuple.Int 7 };
        Ast.Cmp { column = "b"; op = Ast.Le; value = Tuple.Int 7 };
      ]
  in
  Alcotest.(check (list int)) "a range is no equality: same pages, nothing skipped"
    [ matches; pages; leaves; 0 ]
    [ m; p; l; k ]

(* The scan kernels allocate nothing per row or entry: a 5,000-row full
   scan and a 5,000-entry index-only scan, each under a selective
   two-predicate filter (so the result rows are few), each allocate less
   than one minor-heap word per row. *)
let test_scan_allocation () =
  let db, data = make_db ~rows:5000 ~value_range:1000 () in
  let words_per_row sql =
    let statement = Cddpd_sql.Parser.parse_exn sql in
    ignore (Database.execute db statement);
    let before = Gc.minor_words () in
    let result = Database.execute db statement in
    let words = Gc.minor_words () -. before in
    (result, words /. float_of_int (Array.length data))
  in
  let scan, scan_words = words_per_row "SELECT a FROM t WHERE b = 17 AND c >= 0" in
  Alcotest.(check bool) "full scan chosen" true
    ((Option.get scan.Database.plan).Plan.path = Plan.Full_scan);
  if scan_words >= 1.0 then Alcotest.failf "full scan: %.2f words per row" scan_words;
  Database.build_index db (index [ "a"; "b" ]);
  let only, only_words = words_per_row "SELECT b FROM t WHERE b = 17 AND b >= 0" in
  (match (Option.get only.Database.plan).Plan.path with
  | Plan.Index_only_scan _ -> ()
  | Plan.Full_scan | Plan.Index_seek _ | Plan.View_probe _ ->
      Alcotest.fail "expected an index-only scan");
  if only_words >= 1.0 then Alcotest.failf "index-only scan: %.2f words per entry" only_words

(* A repeated seek through its prepared statement re-derives nothing: the
   serve benchmark's steady template (seven predicates over an 8-column
   table with I(a) and I(b), a non-covering seek on I(a) from the warm
   plan memo) allocates at most [prepared_seek_words] per execution.
   Measured at 250 words; compiling the filter, projection and seek
   interval on every execution, as a fresh [Database.execute] does,
   takes about 475. *)
let prepared_seek_words = 320.0

let test_prepared_seek_allocation () =
  let columns = [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ] in
  let db =
    Database.create ~pool_capacity:1024
      [ Schema.table "t" (List.map (fun c -> (c, Schema.Int_type)) columns) ]
  in
  let rng = Rng.create 7 in
  Database.load db ~table:"t"
    (Array.init 5000 (fun _ -> Array.init 8 (fun _ -> Tuple.Int (Rng.int rng 1000))));
  List.iter (fun cs -> Database.build_index db (index cs)) [ [ "a" ]; [ "b" ] ];
  Database.analyze db;
  let statement =
    Cddpd_sql.Parser.parse_exn
      "SELECT a, b FROM t WHERE a = 17 AND c BETWEEN 100 AND 140 AND d = 18 AND e = 12 AND f = 35 \
       AND g = 22 AND h = 18"
  in
  let statement_key = Cost_key.id (Cost_key.statement (Database.table_stats db "t") statement) in
  let handle = Database.prepare statement in
  let first = Database.run ~statement_key db handle in
  (match (Option.get first.Database.plan).Plan.path with
  | Plan.Index_seek { covering = false; _ } -> ()
  | Plan.Full_scan | Plan.Index_seek _ | Plan.Index_only_scan _ | Plan.View_probe _ ->
      Alcotest.fail "expected a non-covering seek");
  let runs = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to runs do
    ignore (Database.run ~statement_key db handle)
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int runs in
  if words > prepared_seek_words then
    Alcotest.failf "prepared seek: %.1f words per execution (bound %.0f)" words prepared_seek_words

(* -- incremental statistics ------------------------------------------------------- *)

(* [build] and [of_counts] must bucket every multiset exactly like the
   naive sorted-array loop: equal fingerprint bytes, hence equal
   [Table_stats.fingerprint]s and cost keys. *)
let histogram_counts_match_naive_prop =
  let values_gen =
    QCheck.Gen.(
      int_range 0 3_000 >>= fun n ->
      oneof
        [
          return [];
          map (fun v -> List.init n (fun _ -> v)) (int_range (-5) 5);
          list_repeat n (int_range 0 3);
          list_repeat n (int_range (-40) 40);
          list_repeat n (int_range (-1_000_000) 1_000_000);
        ])
  in
  let gen = QCheck.Gen.(pair (int_range 1 100) values_gen) in
  QCheck.Test.make ~name:"build = of_counts = naive bucketing (fingerprint bytes)" ~count:300
    (QCheck.make gen)
    (fun (buckets, values) ->
      let values = Array.of_list values in
      (* Count independently of Int_sort.runs: a map from value to count. *)
      let module M = Map.Make (Int) in
      let counted =
        Array.fold_left
          (fun m v -> M.update v (fun c -> Some (1 + Option.value ~default:0 c)) m)
          M.empty values
      in
      let distinct = Array.of_list (M.bindings counted) in
      let expected = Naive.fingerprint_bytes (Naive.histogram ~buckets values) in
      let before = Array.copy values in
      String.equal expected (Naive.fingerprint_bytes (Histogram.build ~buckets values))
      && values = before
      && String.equal expected
           (Naive.fingerprint_bytes
              (Histogram.of_counts ~buckets (Array.map fst distinct) (Array.map snd distinct))))

let stats_schema =
  Schema.table "t"
    [
      ("a", Schema.Int_type);
      ("b", Schema.Int_type);
      ("note", Schema.Text_type);
      ("d", Schema.Int_type);
    ]

type stats_op =
  | Load of bool * (int * int * int) list
  | Insert of int * int * int
  | Delete_where of int
  | Delete_all
  | Update_key of int * int
  | Update_nonkey of int * int
  | Update_same of int
  | Restructure of int
  | Read_stats
  | Analyze

let show_stats_op op =
  match op with
  | Load (bulk, rows) -> Printf.sprintf "Load(bulk=%b, %d rows)" bulk (List.length rows)
  | Insert (a, b, d) -> Printf.sprintf "Insert(%d,%d,%d)" a b d
  | Delete_where a -> Printf.sprintf "Delete(a=%d)" a
  | Delete_all -> "Delete_all"
  | Update_key (a, v) -> Printf.sprintf "Update(a=%d where a=%d)" v a
  | Update_nonkey (a, v) -> Printf.sprintf "Update(b=%d where a=%d)" v a
  | Update_same a -> Printf.sprintf "Update(a=%d where a=%d)" a a
  | Restructure k -> Printf.sprintf "Restructure(%d)" k
  | Read_stats -> "Read"
  | Analyze -> "Analyze"

let stats_op_gen =
  let v = QCheck.Gen.int_range (-3) 12 in
  QCheck.Gen.(
    frequency
      [
        (3, map2 (fun bulk rows -> Load (bulk, rows)) bool (list_size (int_range 0 40) (triple v v v)));
        (3, map3 (fun a b d -> Insert (a, b, d)) v v v);
        (2, map (fun a -> Delete_where a) v);
        (1, return Delete_all);
        (2, map2 (fun a x -> Update_key (a, x)) v v);
        (2, map2 (fun a x -> Update_nonkey (a, x)) v v);
        (1, map (fun a -> Update_same a) v);
        (2, map (fun k -> Restructure k) (int_range 0 3));
        (3, return Read_stats);
        (1, return Analyze);
      ])

let stats_designs =
  [|
    Design.empty;
    Design.of_list [ index [ "a" ] ];
    Design.empty |> Design.add (index [ "b"; "d" ]) |> Design.add_view (view "a");
    Design.empty |> Design.add_view (view "d");
  |]

(* Every statistics read — lazy refresh or [analyze] — must give the
   fingerprint of a full rescan bucketed by the naive loop. *)
let stats_match_rescan_prop =
  QCheck.Test.make ~name:"maintained statistics = naive rescan under random DML" ~count:150
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_stats_op ops))
       QCheck.Gen.(list_size (int_range 1 30) stats_op_gen))
    (fun ops ->
      let db = Database.create ~pool_capacity:64 [ stats_schema ] in
      let row (a, b, d) = [| Tuple.Int a; Tuple.Int b; Tuple.Text "x"; Tuple.Int d |] in
      let sql fmt = Printf.ksprintf (fun s -> ignore (Database.execute_sql db s)) fmt in
      let agrees () =
        String.equal
          (Table_stats.fingerprint (Naive.table_stats db "t"))
          (Table_stats.fingerprint (Database.table_stats db "t"))
      in
      List.for_all
        (fun op ->
          match op with
          | Load (bulk, rows) ->
              Database.load ~bulk db ~table:"t" (Array.of_list (List.map row rows));
              true
          | Insert (a, b, d) ->
              sql "INSERT INTO t VALUES (%d, %d, 'y', %d)" a b d;
              true
          | Delete_where a ->
              sql "DELETE FROM t WHERE a = %d" a;
              true
          | Delete_all ->
              sql "DELETE FROM t";
              true
          | Update_key (a, v) ->
              sql "UPDATE t SET a = %d WHERE a = %d" v a;
              true
          | Update_nonkey (a, v) ->
              sql "UPDATE t SET b = %d WHERE a = %d" v a;
              true
          | Update_same a ->
              sql "UPDATE t SET a = %d WHERE a = %d" a a;
              true
          | Restructure k ->
              Database.migrate_to db stats_designs.(k);
              true
          | Read_stats -> agrees ()
          | Analyze ->
              Database.analyze db;
              agrees ())
        ops
      && agrees ())

(* A long row-at-a-time load overflows the pending log and folds it
   mid-load; deletes then drain a table whose counts went through many
   folds. *)
let test_row_load_folds_pending () =
  let db = Database.create ~pool_capacity:64 [ stats_schema ] in
  let rng = Rng.create 5 in
  Database.load ~bulk:false db ~table:"t"
    (Array.init 5_000 (fun _ ->
         [| Tuple.Int (Rng.int rng 40); Tuple.Int (Rng.int rng 3_000); Tuple.Text "z"; Tuple.Int 1 |]));
  let check label =
    Alcotest.(check string) label
      (Table_stats.fingerprint (Naive.table_stats db "t"))
      (Table_stats.fingerprint (Database.table_stats db "t"))
  in
  check "after the load";
  for a = 0 to 19 do
    ignore (Database.execute_sql db (Printf.sprintf "DELETE FROM t WHERE a = %d" a))
  done;
  check "after deletes";
  ignore (Database.execute_sql db "DELETE FROM t");
  check "after deleting every row";
  Alcotest.(check int) "no rows" 0 (Table_stats.row_count (Database.table_stats db "t"))

(* A row-at-a-time load keeps the rows before a bad one, so it must
   invalidate the snapshot even though it raises. *)
let test_failed_row_load_invalidates () =
  let db = Database.create ~pool_capacity:64 [ stats_schema ] in
  let ok a = [| Tuple.Int a; Tuple.Int a; Tuple.Text "ok"; Tuple.Int a |] in
  Database.load db ~table:"t" (Array.init 50 ok);
  ignore (Database.table_stats db "t");
  (match Database.load ~bulk:false db ~table:"t" [| ok 60; ok 61; [| Tuple.Int 1 |] |] with
  | () -> Alcotest.fail "a bad row must be rejected"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "rows before the bad one kept" 52 (Database.row_count db "t");
  Alcotest.(check string) "snapshot refreshed"
    (Table_stats.fingerprint (Naive.table_stats db "t"))
    (Table_stats.fingerprint (Database.table_stats db "t"))

(* A statistics refresh reads no page, so the first statement after a
   write is charged exactly what a repeat of it is. *)
let test_refresh_charged_no_io () =
  let db, _ = make_db ~rows:2000 () in
  Database.analyze db;
  ignore (Database.execute_sql db "UPDATE t SET b = 3 WHERE a = 4");
  let first = Database.execute_sql db "SELECT b FROM t WHERE c = 7" in
  let second = Database.execute_sql db "SELECT b FROM t WHERE c = 7" in
  Alcotest.(check int) "same logical I/O" second.Database.logical_io first.Database.logical_io

(* -- migration ---------------------------------------------------------------------- *)

let test_migrate_to () =
  let db, _ = make_db ~rows:500 () in
  let d1 = Design.of_list [ index [ "a" ]; index [ "c"; "d" ] ] in
  Database.migrate_to db d1;
  Alcotest.(check bool) "design materialised" true (Design.equal d1 (Database.current_design db));
  let d2 = Design.of_list [ index [ "b" ] ] in
  Database.migrate_to db d2;
  Alcotest.(check bool) "design replaced" true (Design.equal d2 (Database.current_design db));
  Database.migrate_to db Design.empty;
  Alcotest.(check bool) "back to empty" true
    (Design.is_empty (Database.current_design db))

let test_build_index_idempotent () =
  let db, _ = make_db ~rows:200 () in
  Database.build_index db (index [ "a" ]);
  Database.build_index db (index [ "a" ]);
  Alcotest.(check int) "one index" 1 (Design.cardinality (Database.current_design db))

(* -- bulk load ---------------------------------------------------------------------- *)

(* Loading into a table with prebuilt indexes/views takes the bulk path
   (heap-first insert + bulk-built index rebuilds); ?bulk:false forces the
   old row-at-a-time maintenance.  The two must be observationally equal. *)
let bulk_test_data rows =
  let rng = Rng.create 11 in
  Array.init rows (fun _ -> Array.init 4 (fun _ -> Tuple.Int (Rng.int rng 60)))

let make_preindexed_db ~bulk data =
  let db = Database.create ~pool_capacity:1024 [ paper_schema ] in
  Database.migrate_to db
    (Design.empty
    |> Design.add (index [ "a" ])
    |> Design.add (index [ "a"; "b" ])
    |> Design.add_view (view "c"));
  Database.load ~bulk db ~table:"t" data;
  db

let test_bulk_load_matches_row_at_a_time () =
  let data = bulk_test_data 4000 in
  let bulk_db = make_preindexed_db ~bulk:true data in
  let row_db = make_preindexed_db ~bulk:false data in
  Alcotest.(check int) "row counts agree" (Database.row_count row_db "t")
    (Database.row_count bulk_db "t");
  Alcotest.(check bool) "designs agree" true
    (Design.equal (Database.current_design row_db) (Database.current_design bulk_db));
  List.iter
    (fun sql ->
      let a = Database.execute_sql bulk_db sql in
      let b = Database.execute_sql row_db sql in
      let path r =
        match r.Database.plan with Some p -> Some p.Plan.path | None -> None
      in
      if path a <> path b then Alcotest.failf "plans differ for %s" sql;
      if rows_sorted a <> rows_sorted b then Alcotest.failf "rows differ for %s" sql)
    [
      "SELECT a, b FROM t WHERE a = 7";
      "SELECT a FROM t WHERE a BETWEEN 5 AND 9";
      "SELECT * FROM t WHERE d = 3";
      "SELECT c, COUNT(*) FROM t GROUP BY c";
      "SELECT c, SUM(b) FROM t WHERE c = 4 GROUP BY c";
    ]

let test_bulk_load_indexes_maintained_after () =
  (* Bulk-built indexes must keep absorbing DML like incrementally built
     ones. *)
  let db = make_preindexed_db ~bulk:true (bulk_test_data 1000) in
  ignore (Database.execute_sql db "INSERT INTO t VALUES (7, 7, 7, 7)");
  ignore (Database.execute_sql db "DELETE FROM t WHERE a = 9");
  let via_index = Database.execute_sql db "SELECT a, b FROM t WHERE a = 7" in
  (match via_index.Database.plan with
  | Some { Plan.path = Plan.Index_seek _ | Plan.Index_only_scan _; _ } -> ()
  | _ -> Alcotest.fail "expected the index");
  Database.migrate_to db Design.empty;
  let via_scan = Database.execute_sql db "SELECT a, b FROM t WHERE a = 7" in
  Alcotest.(check bool) "index agrees with heap after DML" true
    (rows_sorted via_index = rows_sorted via_scan)

let test_bulk_load_huge_value_spread () =
  (* Key components spanning nearly the whole int range defeat the packed
     single-word sort; the comparator fallback must produce the same
     state. *)
  let data =
    Array.init 500 (fun i ->
        let v = if i mod 2 = 0 then max_int - i else min_int + i in
        [| Tuple.Int v; Tuple.Int (i - 250); Tuple.Int 0; Tuple.Int 0 |])
  in
  let bulk_db = make_preindexed_db ~bulk:true data in
  let row_db = make_preindexed_db ~bulk:false data in
  List.iter
    (fun sql ->
      let a = Database.execute_sql bulk_db sql in
      let b = Database.execute_sql row_db sql in
      if rows_sorted a <> rows_sorted b then Alcotest.failf "rows differ for %s" sql)
    [
      Printf.sprintf "SELECT a, b FROM t WHERE a = %d" (max_int - 2);
      "SELECT a FROM t WHERE b BETWEEN -10 AND 10";
    ]

let test_bulk_load_rejects_whole_batch () =
  (* The bulk path validates every row up front: one bad row rejects the
     whole batch, leaving the table unchanged. *)
  let db = Database.create ~pool_capacity:256 [ paper_schema ] in
  Database.build_index db (index [ "a" ]);
  let bad =
    [| [| Tuple.Int 1; Tuple.Int 2; Tuple.Int 3; Tuple.Int 4 |]; [| Tuple.Int 1 |] |]
  in
  Alcotest.(check bool) "bad row rejected" true
    (match Database.load db ~table:"t" bad with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check int) "nothing loaded" 0 (Database.row_count db "t")

let test_index_on_text_rejected () =
  let db =
    Database.create
      [ Schema.table "s" [ ("x", Schema.Int_type); ("n", Schema.Text_type) ] ]
  in
  Database.load db ~table:"s" [| [| Tuple.Int 1; Tuple.Text "a" |] |];
  Alcotest.(check bool) "text key rejected" true
    (match Database.build_index db (Index_def.make ~table:"s" ~columns:[ "n" ]) with
    | () -> false
    | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "engine"
    [
      ( "histogram",
        [
          Alcotest.test_case "empty" `Quick test_histogram_empty;
          Alcotest.test_case "uniform equality" `Quick test_histogram_uniform_eq;
          Alcotest.test_case "out of range eq" `Quick test_histogram_eq_out_of_range;
          Alcotest.test_case "range" `Quick test_histogram_range;
          Alcotest.test_case "min/max" `Quick test_histogram_minmax;
          Alcotest.test_case "skew" `Quick test_histogram_skew;
          QCheck_alcotest.to_alcotest histogram_range_bounds_prop;
          QCheck_alcotest.to_alcotest histogram_search_matches_fold_prop;
        ] );
      ( "schema+check",
        [
          Alcotest.test_case "lookups" `Quick test_schema_lookups;
          Alcotest.test_case "tuple validation" `Quick test_schema_validate_tuple;
          Alcotest.test_case "statement checking" `Quick test_check_statement;
        ] );
      ( "planner",
        [
          Alcotest.test_case "no index => scan" `Quick test_plan_no_index_scans;
          Alcotest.test_case "covering seek" `Quick test_plan_seek_with_index;
          Alcotest.test_case "non-covering seek" `Quick test_plan_noncovering_seek;
          Alcotest.test_case "index-only scan" `Quick test_plan_index_only_scan;
          Alcotest.test_case "star never covered" `Quick test_plan_star_never_covered;
          Alcotest.test_case "prefix + range" `Quick test_plan_composite_prefix_and_range;
          Alcotest.test_case "seek beats leaf scan" `Quick test_plan_prefers_seek_over_scan;
        ] );
      ( "executor",
        [
          Alcotest.test_case "no indexes" `Quick test_exec_no_indexes;
          Alcotest.test_case "single-column indexes" `Quick test_exec_single_indexes;
          Alcotest.test_case "composite indexes" `Quick test_exec_composite_indexes;
          Alcotest.test_case "full paper design space" `Quick test_exec_all_indexes;
          Alcotest.test_case "insert maintains indexes" `Quick test_exec_insert_updates_indexes;
          Alcotest.test_case "I/O measured" `Quick test_exec_io_measured;
          Alcotest.test_case "semantic errors raise" `Quick test_exec_semantic_error_raises;
          QCheck_alcotest.to_alcotest exec_design_independent_prop;
          QCheck_alcotest.to_alcotest exec_matches_naive_prop;
          QCheck_alcotest.to_alcotest prepared_matches_fresh_prop;
          Alcotest.test_case "int edge bounds" `Quick test_int_edge_bounds;
          Alcotest.test_case "scan kernels allocate nothing per row" `Quick test_scan_allocation;
          Alcotest.test_case "index-only equality scan skips leaves" `Quick
            test_index_only_leaves_skipped;
          Alcotest.test_case "prepared seek allocation bounded" `Quick
            test_prepared_seek_allocation;
        ] );
      ( "dml",
        [
          Alcotest.test_case "delete basic" `Quick test_delete_basic;
          Alcotest.test_case "delete via index" `Quick test_delete_uses_index_and_maintains_it;
          Alcotest.test_case "bulk load = row-at-a-time load" `Quick
            test_bulk_load_matches_row_at_a_time;
          Alcotest.test_case "bulk-built indexes absorb DML" `Quick
            test_bulk_load_indexes_maintained_after;
          Alcotest.test_case "bulk load rejects whole batch" `Quick
            test_bulk_load_rejects_whole_batch;
          Alcotest.test_case "bulk load with huge value spread" `Quick
            test_bulk_load_huge_value_spread;
          Alcotest.test_case "delete everything" `Quick test_delete_everything;
          Alcotest.test_case "update basic" `Quick test_update_basic;
          Alcotest.test_case "update maintains indexes" `Quick test_update_maintains_indexes;
          Alcotest.test_case "mixed DML consistency" `Quick test_update_then_reference_agrees;
        ] );
      ( "views",
        [
          Alcotest.test_case "count matches scan" `Quick test_view_count_matches_scan;
          Alcotest.test_case "sum and probe" `Quick test_view_sum_and_probe;
          Alcotest.test_case "contradictory group equalities" `Quick
            test_view_probe_contradiction;
          Alcotest.test_case "filtered aggregates bypass views" `Quick
            test_view_not_used_for_filtered_aggregates;
          Alcotest.test_case "maintained under DML" `Quick test_view_maintained_under_dml;
          Alcotest.test_case "text group rejected" `Quick test_view_on_text_column_rejected;
          Alcotest.test_case "design with views" `Quick test_view_in_design_name;
          QCheck_alcotest.to_alcotest view_maintenance_prop;
        ] );
      ( "plan memo",
        [
          Alcotest.test_case "memo = fresh across invalidations" `Quick
            test_plan_memo_equiv;
          Alcotest.test_case "view probe rebinds group value" `Quick
            test_plan_memo_view_probe;
          Alcotest.test_case "stats generation fence" `Quick
            test_stats_generation_fence;
          Alcotest.test_case "wrong key costs I/O, never rows" `Quick test_plan_memo_wrong_key;
        ] );
      ( "statistics",
        [
          QCheck_alcotest.to_alcotest histogram_counts_match_naive_prop;
          QCheck_alcotest.to_alcotest stats_match_rescan_prop;
          Alcotest.test_case "row-at-a-time load folds its log" `Quick
            test_row_load_folds_pending;
          Alcotest.test_case "failed row-at-a-time load invalidates" `Quick
            test_failed_row_load_invalidates;
          Alcotest.test_case "refresh costs a statement no I/O" `Quick
            test_refresh_charged_no_io;
        ] );
      ( "stress",
        [ Alcotest.test_case "tiny buffer pool" `Quick test_tiny_pool_correctness ] );
      ( "migration",
        [
          Alcotest.test_case "migrate_to" `Quick test_migrate_to;
          Alcotest.test_case "build idempotent" `Quick test_build_index_idempotent;
          Alcotest.test_case "text key rejected" `Quick test_index_on_text_rejected;
          Alcotest.test_case "index build matches naive" `Quick test_index_build_matches_naive;
        ] );
    ]
