(* Cost-cache and parallel-build tests: memoization must be invisible
   (bit-identical costs), Problem.build must equal the naive oracle
   (naive.ml) in matrices and solver outputs whatever the domain count,
   and the collision-safe keys must actually distinguish distinct
   inputs. *)

module Tuple = Cddpd_storage.Tuple
module Schema = Cddpd_catalog.Schema
module Index_def = Cddpd_catalog.Index_def
module View_def = Cddpd_catalog.View_def
module Structure = Cddpd_catalog.Structure
module Design = Cddpd_catalog.Design
module Ast = Cddpd_sql.Ast
module Cost_model = Cddpd_engine.Cost_model
module Cost_cache = Cddpd_engine.Cost_cache
module Cost_key = Cddpd_engine.Cost_key
module Database = Cddpd_engine.Database
module Config_space = Cddpd_core.Config_space
module Problem = Cddpd_core.Problem
module Optimizer = Cddpd_core.Optimizer
module Solution = Cddpd_core.Solution
module Rng = Cddpd_util.Rng

let params = Cost_model.default_params

let schema =
  Schema.table "t"
    [
      ("a", Schema.Int_type);
      ("b", Schema.Int_type);
      ("c", Schema.Int_type);
      ("d", Schema.Int_type);
    ]

let make_db ?(rows = 2_000) ?(value_range = 400) () =
  let db = Database.create ~pool_capacity:1024 [ schema ] in
  let rng = Rng.create 11 in
  let data =
    Array.init rows (fun _ -> Array.init 4 (fun _ -> Tuple.Int (Rng.int rng value_range)))
  in
  Database.load db ~table:"t" data;
  db

let db = make_db ()

let stats = Database.table_stats db "t"

let stats_of table = Database.table_stats db table

let index columns = Index_def.make ~table:"t" ~columns

let structure_pool =
  [
    Structure.index (index [ "a" ]);
    Structure.index (index [ "b" ]);
    Structure.index (index [ "c" ]);
    Structure.index (index [ "d" ]);
    Structure.index (index [ "a"; "b" ]);
    Structure.index (index [ "c"; "d" ]);
    Structure.view (View_def.make ~table:"t" ~group_by:"a");
    Structure.view (View_def.make ~table:"t" ~group_by:"c");
  ]

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* -- generators ------------------------------------------------------------- *)

let columns = [ "a"; "b"; "c"; "d" ]

let gen_predicate =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun column op value ->
            Ast.Cmp { column; op; value = Tuple.Int value })
          (oneofl columns)
          (oneofl [ Ast.Eq; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ])
          (int_bound 399);
        map3
          (fun column low high ->
            Ast.Between
              { column; low = Tuple.Int (min low high); high = Tuple.Int (max low high) })
          (oneofl columns) (int_bound 399) (int_bound 399);
      ])

let gen_statement =
  QCheck.Gen.(
    let where = list_size (int_bound 3) gen_predicate in
    let projection =
      oneof
        [
          return Ast.Star;
          map (fun cs -> Ast.Columns cs) (map2 (fun c cs -> c :: cs) (oneofl columns) (list_size (int_bound 2) (oneofl columns)));
        ]
    in
    oneof
      [
        map2
          (fun projection where -> Ast.Select { projection; table = "t"; where })
          projection where;
        map3
          (fun group_by aggregate where ->
            Ast.Select_agg { table = "t"; group_by; aggregate; where })
          (oneofl columns)
          (oneof [ return Ast.Count_star; map (fun c -> Ast.Sum c) (oneofl columns) ])
          where;
        map
          (fun vs -> Ast.Insert { table = "t"; values = List.map (fun v -> Tuple.Int v) vs })
          (flatten_l (List.init 4 (fun _ -> int_bound 399)));
        map (fun where -> Ast.Delete { table = "t"; where }) where;
        map3
          (fun column value where ->
            Ast.Update { table = "t"; assignments = [ (column, Tuple.Int value) ]; where })
          (oneofl columns) (int_bound 399) where;
      ])

let gen_design =
  QCheck.Gen.(
    map
      (fun picks ->
        List.fold_left2
          (fun design pick structure ->
            if pick then Design.add_structure structure design else design)
          Design.empty picks structure_pool)
      (flatten_l (List.map (fun _ -> bool) structure_pool)))

let arb_statement_design =
  QCheck.make
    ~print:(fun (s, d) -> Cddpd_sql.Printer.to_string s ^ " under " ^ Design.name d)
    QCheck.Gen.(pair gen_statement gen_design)

(* -- properties -------------------------------------------------------------- *)

(* One shared cache across all iterations: later iterations hit entries
   cached by earlier ones, so the property also covers the hit path. *)
let shared_cache = Cost_cache.create ()

let cached_equals_uncached_prop =
  QCheck.Test.make ~name:"cached EXEC == uncached EXEC (bit-identical)" ~count:500
    arb_statement_design (fun (statement, design) ->
      let direct = Cost_model.statement_cost params stats design statement in
      let cached = Cost_cache.statement_cost shared_cache params stats ~design statement in
      let cached_again =
        Cost_cache.statement_cost shared_cache params stats ~design statement
      in
      same_float direct cached && same_float direct cached_again)

(* Statistics snapshots that agree on everything but column [c]: its
   histogram is rebuilt with [distinct] values, so statements that never
   read [c] keep their selectivities while views grouped on [c] change
   height.  A memo keyed across such snapshots (the serve loop's probation
   cache outlives statistics refreshes) must still tell them apart. *)
let with_c_distinct distinct =
  let rows = Cddpd_engine.Table_stats.row_count stats in
  Cddpd_engine.Table_stats.make ~row_count:rows
    ~page_count:(Cddpd_engine.Table_stats.page_count stats)
    ~histograms:
      (List.map
         (fun column ->
           ( column,
             if String.equal column "c" then
               Cddpd_engine.Histogram.build (Array.init rows (fun i -> i mod distinct))
             else Option.get (Cddpd_engine.Table_stats.histogram stats column) ))
         columns)

let stats_pool = [| stats; with_c_distinct 150; with_c_distinct 155; with_c_distinct 400 |]

(* The statement key is a cost identity, not a syntactic one: distinct
   statements may share a key (that is where the hit rate comes from), but
   equal under-design keys must imply bit-equal costs under every design
   and every statistics snapshot. *)
let key_sound_prop =
  let arb =
    QCheck.make
      ~print:(fun ((s, d), i) ->
        Printf.sprintf "%s under %s, stats %d" (Cddpd_sql.Printer.to_string s) (Design.name d) i)
      QCheck.Gen.(
        pair (pair gen_statement gen_design) (int_bound (Array.length stats_pool - 1)))
  in
  (* Half the pairs cost one statement and design under two snapshots,
     where equal keys with unequal costs would be likeliest. *)
  QCheck.Test.make ~name:"equal cost keys => bit-equal costs" ~count:1000
    (QCheck.triple arb arb QCheck.bool)
    (fun (((s1, d1), i1), ((s2, d2), i2), same) ->
      let s2, d2 = if same then (s1, d1) else (s2, d2) in
      let key s d i =
        Cost_key.statement_under_design ~design:d ~design_key:(Cost_key.design d)
          stats_pool.(i) s
      in
      (not (String.equal (key s1 d1 i1) (key s2 d2 i2)))
      || same_float
           (Cost_model.statement_cost params stats_pool.(i1) d1 s1)
           (Cost_model.statement_cost params stats_pool.(i2) d2 s2))

(* Regression: DELETE under a view pays the view's maintenance, whose
   height follows the group column's distinct count.  Two snapshots that
   differ only there share the statement key but not the cost, so the
   under-design key — and with it a cache that outlives the refresh —
   must separate them. *)
let test_view_cardinality_in_key () =
  let rows = 20_000 in
  let snapshot g_distinct =
    Cddpd_engine.Table_stats.make ~row_count:rows ~page_count:400
      ~histograms:
        [
          ("a", Cddpd_engine.Histogram.build (Array.init rows (fun i -> i mod 1000)));
          ("g", Cddpd_engine.Histogram.build (Array.init rows (fun i -> i mod g_distinct)));
        ]
  in
  let before = snapshot 150 and after = snapshot 155 in
  let delete =
    Ast.Delete { table = "t"; where = [ Ast.Cmp { column = "a"; op = Ast.Eq; value = Tuple.Int 5 } ] }
  in
  let design = Design.add_view (View_def.make ~table:"t" ~group_by:"g") Design.empty in
  let cost s = Cost_model.statement_cost params s design delete in
  Alcotest.(check string) "statement keys agree" (Cost_key.statement before delete)
    (Cost_key.statement after delete);
  Alcotest.(check bool) "costs differ" false (same_float (cost before) (cost after));
  let key s = Cost_key.statement_under_design ~design ~design_key:(Cost_key.design design) s delete in
  Alcotest.(check bool) "under-design keys differ" false (String.equal (key before) (key after));
  let cache = Cost_cache.create () in
  let through s = Cost_cache.statement_cost cache params s ~design delete in
  Alcotest.(check bool) "cache before" true (same_float (cost before) (through before));
  Alcotest.(check bool) "cache after the refresh" true (same_float (cost after) (through after))

let design_key_injective_prop =
  QCheck.Test.make ~name:"distinct designs => distinct design keys" ~count:300
    (QCheck.pair arb_statement_design arb_statement_design)
    (fun ((_, d1), (_, d2)) ->
      QCheck.assume (not (Design.equal d1 d2));
      not (String.equal (Cost_key.design d1) (Cost_key.design d2)))

(* -- Problem.build determinism ------------------------------------------------ *)

let steps_for_build =
  (* A fixed workload with plenty of repeated statements, like real
     segmented traces. *)
  let rand = Random.State.make [| 42 |] in
  let pool = Array.init 30 (fun _ -> QCheck.Gen.generate1 ~rand gen_statement) in
  Array.init 6 (fun _ ->
      Array.init 40 (fun _ -> pool.(Random.State.int rand (Array.length pool))))

let space = Config_space.single_structure structure_pool

let build ~jobs =
  Problem.build ~params ~stats_of ~steps:steps_for_build ~space ~initial:Design.empty
    ~jobs ()

let build_jobs = [ 1; 4; 13 ]

let test_build_matches_oracle_across_jobs () =
  List.iter
    (fun jobs ->
      let built = build ~jobs in
      let oracle = Naive.problem params ~stats_of built in
      let label = Printf.sprintf "jobs=%d" jobs in
      Alcotest.(check bool) (label ^ ": exec identical") true
        (Naive.matrix_same_bits built.Problem.exec oracle.Problem.exec);
      Alcotest.(check bool) (label ^ ": trans identical") true
        (Naive.matrix_same_bits built.Problem.trans oracle.Problem.trans))
    build_jobs

let test_solvers_bit_identical_to_oracle () =
  let methods =
    [
      (Solution.Unconstrained, None);
      (Solution.Kaware, Some 2);
      (Solution.Greedy_seq, Some 2);
      (Solution.Merging, Some 2);
      (Solution.Ranking, Some 2);
      (Solution.Hybrid, Some 2);
    ]
  in
  List.iter
    (fun (method_name, k) ->
      let solve problem =
        match Optimizer.solve problem ~method_name ?k () with
        | Ok s -> s
        | Error _ ->
            Alcotest.failf "solver %s failed" (Solution.method_to_string method_name)
      in
      List.iter
        (fun jobs ->
          let built = build ~jobs in
          let a = solve built and b = solve (Naive.problem params ~stats_of built) in
          let name = Printf.sprintf "%s jobs=%d" (Solution.method_to_string method_name) jobs in
          Alcotest.(check (array int)) (name ^ ": same path") b.Solution.path a.Solution.path;
          Alcotest.(check bool) (name ^ ": same cost bits") true
            (same_float a.Solution.cost b.Solution.cost);
          Alcotest.(check int) (name ^ ": same changes") b.Solution.changes a.Solution.changes)
        build_jobs)
    methods

(* -- cache mechanics ----------------------------------------------------------- *)

let test_cache_hits_and_misses () =
  let cache = Cost_cache.create () in
  let statement = Ast.Select { projection = Ast.Star; table = "t"; where = [] } in
  let design = Design.empty in
  let v1 = Cost_cache.statement_cost cache params stats ~design statement in
  let v2 = Cost_cache.statement_cost cache params stats ~design statement in
  Alcotest.(check bool) "same value" true (same_float v1 v2);
  let s = Cost_cache.stats cache in
  Alcotest.(check int) "one miss" 1 s.Cost_cache.misses;
  Alcotest.(check int) "one hit" 1 s.Cost_cache.hits

let test_cache_eviction_keeps_answers () =
  let cache = Cost_cache.create ~capacity:4 () in
  let rand = Random.State.make [| 7 |] in
  let statements = Array.init 40 (fun _ -> QCheck.Gen.generate1 ~rand gen_statement) in
  let design = Design.singleton (index [ "a" ]) in
  Array.iter
    (fun statement ->
      let direct = Cost_model.statement_cost params stats design statement in
      let cached = Cost_cache.statement_cost cache params stats ~design statement in
      Alcotest.(check bool) "answer survives eviction pressure" true
        (same_float direct cached))
    statements;
  let s = Cost_cache.stats cache in
  Alcotest.(check bool) "evictions happened" true (s.Cost_cache.evictions > 0)

let test_disabled_cache_passthrough () =
  let statement = Ast.Select { projection = Ast.Star; table = "t"; where = [] } in
  let direct = Cost_model.statement_cost params stats Design.empty statement in
  let through =
    Cost_cache.statement_cost Cost_cache.disabled params stats ~design:Design.empty
      statement
  in
  Alcotest.(check bool) "same value" true (same_float direct through);
  let s = Cost_cache.stats Cost_cache.disabled in
  Alcotest.(check int) "no stats" 0 (s.Cost_cache.hits + s.Cost_cache.misses)

let () =
  Alcotest.run "cost_cache"
    [
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest cached_equals_uncached_prop;
          QCheck_alcotest.to_alcotest key_sound_prop;
          QCheck_alcotest.to_alcotest design_key_injective_prop;
          Alcotest.test_case "view cardinality in the under-design key" `Quick
            test_view_cardinality_in_key;
        ] );
      ( "problem_build",
        [
          Alcotest.test_case "matrices = naive oracle, jobs 1/4/13" `Quick
            test_build_matches_oracle_across_jobs;
          Alcotest.test_case "solvers = naive oracle, jobs 1/4/13" `Quick
            test_solvers_bit_identical_to_oracle;
        ] );
      ( "mechanics",
        [
          Alcotest.test_case "hits and misses" `Quick test_cache_hits_and_misses;
          Alcotest.test_case "eviction keeps answers" `Quick
            test_cache_eviction_keeps_answers;
          Alcotest.test_case "disabled passthrough" `Quick test_disabled_cache_passthrough;
        ] );
    ]
