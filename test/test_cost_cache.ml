(* Cost-key, atom-memo and build tests: equal cost keys must mean equal
   costs (what clustering relies on), Problem.build must equal the naive
   oracle (naive.ml) in matrices and solver outputs, and the session's
   atom memo (Cost_cache) must account for
   what it reads, evaluates and evicts, across statistics refreshes too. *)

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

(* -- properties -------------------------------------------------------------- *)

(* Statistics snapshots that agree on everything but column [c]: its
   histogram is rebuilt with [distinct] values, so statements that never
   read [c] keep their selectivities while views grouped on [c] change
   height. *)
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

(* The same statement shape with fresh literals: predicate constants,
   INSERT values, UPDATE assignments and the aggregate function redrawn.
   Such siblings often share a cost key, which is the case clustering
   exploits. *)
let gen_sibling statement =
  QCheck.Gen.(
    let value = map (fun v -> Tuple.Int v) (int_bound 399) in
    let pred = function
      | Ast.Cmp c -> map (fun value -> Ast.Cmp { c with value }) value
      | Ast.Between b ->
          map2
            (fun x y ->
              Ast.Between { b with low = Tuple.Int (min x y); high = Tuple.Int (max x y) })
            (int_bound 399) (int_bound 399)
    in
    let where ps = flatten_l (List.map pred ps) in
    match statement with
    | Ast.Select s -> map (fun where -> Ast.Select { s with where }) (where s.where)
    | Ast.Select_agg s ->
        map2
          (fun aggregate where -> Ast.Select_agg { s with aggregate; where })
          (oneof [ return Ast.Count_star; map (fun c -> Ast.Sum c) (oneofl columns) ])
          (where s.where)
    | Ast.Insert i -> map (fun values -> Ast.Insert { i with values }) (list_repeat 4 value)
    | Ast.Delete d -> map (fun where -> Ast.Delete { d with where }) (where d.where)
    | Ast.Update u ->
        map2
          (fun v where ->
            Ast.Update
              { u with assignments = List.map (fun (c, _) -> (c, v)) u.assignments; where })
          value (where u.where))

(* The statement key is a cost identity, not a syntactic one: distinct
   statements may share a key (that is where clustering's savings come
   from), but within one statistics snapshot equal keys must imply
   bit-equal costs under every design. *)
let key_sound_prop =
  let gen =
    QCheck.Gen.(
      gen_statement >>= fun s1 ->
      quad (return s1) (gen_sibling s1)
        (int_bound (Array.length stats_pool - 1))
        (list_repeat 3 gen_design))
  in
  QCheck.Test.make ~name:"equal cost keys => bit-equal costs" ~count:1000
    (QCheck.make
       ~print:(fun (s1, s2, i, _) ->
         Printf.sprintf "%s / %s, stats %d" (Cddpd_sql.Printer.to_string s1)
           (Cddpd_sql.Printer.to_string s2) i)
       gen)
    (fun (s1, s2, i, designs) ->
      let snapshot = stats_pool.(i) in
      (not (String.equal (Cost_key.statement snapshot s1) (Cost_key.statement snapshot s2)))
      || List.for_all
           (fun d ->
             same_float
               (Cost_model.statement_cost params snapshot d s1)
               (Cost_model.statement_cost params snapshot d s2))
           designs)

(* Equal (statement key, structure identity) under two snapshots reached
   by DML must mean bit-equal atoms: the atom memo keeps rows across
   statistics refreshes on exactly this.  Each case loads a small table,
   runs a few random writes (mostly UPDATEs, which keep the row count but
   move the written column's histogram, and with it the group count of a
   view on that column), and compares a statement under the old snapshot
   with a sibling under the new one, for every index of the pool and a
   view on every column.

   Every column starts with exactly [groups] distinct values, the largest
   group count whose view lookup tree (shaped like a one-column index) is
   still one level shorter, so a write that adds a value grows every
   view on its column by a level. *)
let groups =
  let shape = index [ "a" ] in
  let height rows = Cost_model.index_height params ~rows shape in
  let rec last_before_growth n =
    if height (n + 1) > height n then n else last_before_growth (n + 1)
  in
  last_before_growth 1

let boundary_db () =
  let db = Database.create ~pool_capacity:1024 [ schema ] in
  let rng = Rng.create 11 in
  Database.load db ~table:"t"
    (Array.init (3 * groups) (fun i ->
         Array.init 4 (fun _ -> Tuple.Int (if i < groups then i else Rng.int rng groups))));
  db

let gen_write =
  QCheck.Gen.(
    let eq column v = [ Ast.Cmp { column; op = Ast.Eq; value = Tuple.Int v } ] in
    frequency
      [
        ( 4,
          map2
            (fun (set, v) (column, w) ->
              Ast.Update { table = "t"; assignments = [ (set, Tuple.Int v) ]; where = eq column w })
            (pair (oneofl columns) (int_bound (2 * groups)))
            (pair (oneofl columns) (int_bound groups)) );
        ( 1,
          map2
            (fun column w -> Ast.Delete { table = "t"; where = eq column w })
            (oneofl columns) (int_bound groups) );
        ( 1,
          map
            (fun vs -> Ast.Insert { table = "t"; values = List.map (fun v -> Tuple.Int v) vs })
            (list_repeat 4 (int_bound (2 * groups))) );
      ])

let cross_snapshot_structures =
  List.filter (function Structure.Index _ -> true | Structure.View _ -> false) structure_pool
  @ List.map (fun g -> Structure.view (View_def.make ~table:"t" ~group_by:g)) columns

let cross_snapshot_prop =
  let gen =
    QCheck.Gen.(
      gen_statement >>= fun s1 ->
      triple (return s1)
        (oneof [ return s1; gen_sibling s1 ])
        (list_size (int_range 1 4) gen_write))
  in
  QCheck.Test.make ~name:"equal keys across DML snapshots => bit-equal atoms" ~count:300
    (QCheck.make
       ~print:(fun (s1, s2, writes) ->
         Printf.sprintf "%s / %s after %s" (Cddpd_sql.Printer.to_string s1)
           (Cddpd_sql.Printer.to_string s2)
           (String.concat "; " (List.map Cddpd_sql.Printer.to_string writes)))
       gen)
    (fun (s1, s2, writes) ->
      let db = boundary_db () in
      let before = Database.table_stats db "t" in
      List.iter (fun w -> ignore (Database.execute db w)) writes;
      let after = Database.table_stats db "t" in
      (not (String.equal (Cost_key.statement before s1) (Cost_key.statement after s2)))
      ||
      let b1 = Cost_model.bind before s1 and b2 = Cost_model.bind after s2 in
      let compose b = Cost_model.compose params b ~access:1.5 ~maintenance:2.5 in
      same_float (Cost_model.base_plan params b1).Cddpd_engine.Plan.estimated_cost
        (Cost_model.base_plan params b2).Cddpd_engine.Plan.estimated_cost
      && same_float (compose b1) (compose b2)
      && List.for_all
           (fun structure ->
             Cost_key.structure_stats before structure <> Cost_key.structure_stats after structure
             ||
             let a1 = Cost_model.atom params b1 structure
             and a2 = Cost_model.atom params b2 structure in
             same_float (Cost_model.access_cost a1) (Cost_model.access_cost a2)
             && same_float a1.Cost_model.maintenance a2.Cost_model.maintenance)
           cross_snapshot_structures)

(* [Cost_key.same_inputs] is a proof of key equality: after random writes,
   whenever it holds, the statement's key under the new snapshot is the
   key under the old one.  [same_inputs_outcomes] counts the verdicts
   (not proven, proven) so the test can require that the generator
   produces both. *)
let same_inputs_outcomes = [| 0; 0 |]

let same_inputs_prop =
  QCheck.Test.make ~name:"same_inputs => equal keys across DML snapshots" ~count:300
    (QCheck.make
       ~print:(fun (s, writes) ->
         Printf.sprintf "%s after %s" (Cddpd_sql.Printer.to_string s)
           (String.concat "; " (List.map Cddpd_sql.Printer.to_string writes)))
       QCheck.Gen.(pair gen_statement (list_size (int_range 1 3) gen_write)))
    (fun (s, writes) ->
      let db = boundary_db () in
      let was = Database.table_stats db "t" in
      List.iter (fun w -> ignore (Database.execute db w)) writes;
      let now = Database.table_stats db "t" in
      let same = Cost_key.same_inputs ~was ~now s in
      same_inputs_outcomes.(Bool.to_int same) <- same_inputs_outcomes.(Bool.to_int same) + 1;
      (not same) || String.equal (Cost_key.statement was s) (Cost_key.statement now s))

let test_same_inputs_sound () =
  QCheck.Test.check_exn same_inputs_prop;
  Alcotest.(check bool) "some keys carried" true (same_inputs_outcomes.(1) > 0);
  Alcotest.(check bool) "some keys not proven" true (same_inputs_outcomes.(0) > 0)

(* One-table problems over synthetic statistics that differ only in the
   distinct count of the view's group column [g]. *)
let view_g = Structure.view (View_def.make ~table:"t" ~group_by:"g")

let index_a = Structure.index (index [ "a" ])

let g_snapshot g_distinct =
  let rows = 20_000 in
  Cddpd_engine.Table_stats.make ~row_count:rows ~page_count:400
    ~histograms:
      [
        ("a", Cddpd_engine.Histogram.build (Array.init rows (fun i -> i mod 1000)));
        ("g", Cddpd_engine.Histogram.build (Array.init rows (fun i -> i mod g_distinct)));
      ]

let delete_a =
  Ast.Delete { table = "t"; where = [ Ast.Cmp { column = "a"; op = Ast.Eq; value = Tuple.Int 5 } ] }

let build_under ?reuse snapshot structures steps =
  Problem.build ~params
    ~stats_of:(fun _ -> snapshot)
    ~steps ~space:(Config_space.single_structure structures) ~initial:Design.empty ?reuse ()

let check_oracle label snapshot built =
  Alcotest.(check bool) (label ^ " = oracle") true
    (Naive.matches params ~stats_of:(fun _ -> snapshot) built)

(* Regression: DELETE under a view pays the view's maintenance, whose
   height follows the group column's distinct count.  Two snapshots that
   differ only there (150 and 155 groups: one leaf page or two) share the
   statement key but not the cost, so the view's identity differs between
   them: the session build after the refresh keeps the cluster's row,
   reads its index atom, and recosts only the view's. *)
let test_view_cardinality_refresh () =
  let before = g_snapshot 150 and after = g_snapshot 155 in
  let design = Design.add_structure view_g Design.empty in
  let cost s = Cost_model.statement_cost params s design delete_a in
  Alcotest.(check string) "statement keys agree" (Cost_key.statement before delete_a)
    (Cost_key.statement after delete_a);
  Alcotest.(check bool) "costs differ" false (same_float (cost before) (cost after));
  Alcotest.(check bool) "view identities differ" false
    (Cost_key.structure_stats before view_g = Cost_key.structure_stats after view_g);
  let reuse = Problem.Reuse.create () in
  let steps = [| [| delete_a |] |] in
  check_oracle "before" before (build_under ~reuse before [ index_a; view_g ] steps);
  let s1 = Cost_cache.stats (Problem.Reuse.memo reuse) in
  check_oracle "after the refresh" after (build_under ~reuse after [ index_a; view_g ] steps);
  let s2 = Cost_cache.stats (Problem.Reuse.memo reuse) in
  Alcotest.(check int) "the cluster's row kept" 1
    (Problem.Reuse.tallies reuse).Problem.Reuse.clusters_recosted;
  Alcotest.(check int) "the index atom read" 1 (s2.Cost_cache.hits - s1.Cost_cache.hits);
  Alcotest.(check int) "only the view atom recosted" 1
    (s2.Cost_cache.misses - s1.Cost_cache.misses)

(* A row kept across a refresh was bound under the old snapshot.  A
   structure the new build adds must be costed from a binding under the
   new one, or the view's maintenance reads the old group count. *)
let test_added_structure_after_refresh () =
  let reuse = Problem.Reuse.create () in
  let steps = [| [| delete_a |] |] in
  ignore (build_under ~reuse (g_snapshot 150) [ index_a ] steps);
  let after = g_snapshot 155 in
  check_oracle "B adds the view" after (build_under ~reuse after [ index_a; view_g ] steps);
  Alcotest.(check int) "the row was kept" 1
    (Problem.Reuse.tallies reuse).Problem.Reuse.clusters_recosted

(* Refreshes that move a view's group count back and forth clear its
   column instead of taking new ids: rows stay as wide as the structures,
   and every stored atom equals a fresh evaluation under the current
   snapshot. *)
let test_ids_bounded_across_refreshes () =
  let memo = Cost_cache.create () in
  let structures = [| index_a; view_g |] in
  let structure_keys = Array.map Cost_key.structure structures in
  List.iter
    (fun g_distinct ->
      let stats = g_snapshot g_distinct in
      let snapshot = Hashtbl.create 1 in
      Hashtbl.replace snapshot "t" stats;
      let { Cost_cache.rows; ids; _ } =
        Cost_cache.lookup memo params ~snapshot ~structures ~structure_keys
          ~cluster_keys:[| Cost_key.id (Cost_key.statement stats delete_a) |]
          ~reps:[| delete_a |]
      in
      let fresh = Cost_model.bind stats delete_a in
      Array.iter
        (fun row ->
          Alcotest.(check int) "row width = structures" (Array.length structures)
            (Array.length row.Cost_cache.access);
          Array.iteri
            (fun u id ->
              let atom = Cost_model.atom params fresh structures.(u) in
              Alcotest.(check bool) "atom = fresh evaluation" true
                (same_float row.Cost_cache.access.(id) (Cost_model.access_cost atom)
                && same_float row.Cost_cache.maintenance.(id) atom.Cost_model.maintenance))
            ids)
        rows)
    [ 150; 155; 150; 155; 160; 150; 400 ]

(* -- Problem.build determinism ------------------------------------------------ *)

let steps_for_build =
  (* A fixed workload with plenty of repeated statements, like real
     segmented traces. *)
  let rand = Random.State.make [| 42 |] in
  let pool = Array.init 30 (fun _ -> QCheck.Gen.generate1 ~rand gen_statement) in
  Array.init 6 (fun _ ->
      Array.init 40 (fun _ -> pool.(Random.State.int rand (Array.length pool))))

let space = Config_space.single_structure structure_pool

let build () =
  Problem.build ~params ~stats_of ~steps:steps_for_build ~space ~initial:Design.empty ()

let test_build_matches_oracle () =
  let built = build () in
  let oracle = Naive.problem params ~stats_of built in
  Alcotest.(check bool) "exec identical" true
    (Naive.matrix_same_bits built.Problem.exec oracle.Problem.exec);
  Alcotest.(check bool) "trans identical" true
    (Naive.matrix_same_bits built.Problem.trans oracle.Problem.trans)

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
  let built = build () in
  let oracle = Naive.problem params ~stats_of built in
  List.iter
    (fun (method_name, k) ->
      let solve problem =
        match Optimizer.solve problem ~method_name ?k () with
        | Ok s -> s
        | Error _ ->
            Alcotest.failf "solver %s failed" (Solution.method_to_string method_name)
      in
      let a = solve built and b = solve oracle in
      let name = Solution.method_to_string method_name in
      Alcotest.(check (array int)) (name ^ ": same path") b.Solution.path a.Solution.path;
      Alcotest.(check bool) (name ^ ": same cost bits") true
        (same_float a.Solution.cost b.Solution.cost);
      Alcotest.(check int) (name ^ ": same changes") b.Solution.changes a.Solution.changes)
    methods

(* -- atom-memo accounting -------------------------------------------------------- *)

let n_structures space =
  List.length
    (Design.structures
       (Array.fold_left Design.union Design.empty (Config_space.designs space)))

(* A build whose clusters and structures were all seen before reads every
   atom from the memo: no miss, clusters x structures hits.  Misses are
   the builds' what-if calls. *)
let test_cache_hits_and_misses () =
  let reuse = Problem.Reuse.create () in
  let calls = Cddpd_obs.Registry.counter "cost_model.calls" in
  let was_enabled = Cddpd_obs.Registry.enabled () in
  Cddpd_obs.Registry.enable ();
  Fun.protect ~finally:(fun () -> if not was_enabled then Cddpd_obs.Registry.disable ())
  @@ fun () ->
  let before = Cddpd_obs.Counter.value calls in
  let first =
    Problem.build ~params ~stats_of ~steps:steps_for_build ~space ~initial:Design.empty ~reuse ()
  in
  let clusters = (Problem.Reuse.tallies reuse).Problem.Reuse.clusters_recosted in
  let atoms = clusters * n_structures space in
  let s1 = Cost_cache.stats (Problem.Reuse.memo reuse) in
  Alcotest.(check int) "first build: every atom a miss" atoms s1.Cost_cache.misses;
  Alcotest.(check int) "first build: no hit" 0 s1.Cost_cache.hits;
  Alcotest.(check int) "misses = what-if calls" s1.Cost_cache.misses
    (Cddpd_obs.Counter.value calls - before);
  let second =
    Problem.build ~params ~stats_of ~steps:steps_for_build ~space ~initial:Design.empty ~reuse ()
  in
  let s2 = Cost_cache.stats (Problem.Reuse.memo reuse) in
  Alcotest.(check int) "seen build: no miss" 0 (s2.Cost_cache.misses - s1.Cost_cache.misses);
  Alcotest.(check int) "seen build: clusters x structures hits" atoms
    (s2.Cost_cache.hits - s1.Cost_cache.hits);
  Alcotest.(check bool) "same matrices" true
    (Naive.matrix_same_bits first.Problem.exec second.Problem.exec
    && Naive.matrix_same_bits first.Problem.trans second.Problem.trans)

(* A cluster the next build lacks is evicted, and the build that evicted
   it still equals the oracle. *)
let test_cache_eviction_keeps_answers () =
  let reuse = Problem.Reuse.create () in
  let build steps =
    let built = Problem.build ~params ~stats_of ~steps ~space ~initial:Design.empty ~reuse () in
    Alcotest.(check bool) "= oracle" true (Naive.matches params ~stats_of built);
    (Problem.Reuse.tallies reuse).Problem.Reuse.clusters_recosted
  in
  let all_clusters = build steps_for_build in
  let last = [| steps_for_build.(Array.length steps_for_build - 1) |] in
  let fresh_reuse = Problem.Reuse.create () in
  ignore (Problem.build ~params ~stats_of ~steps:last ~space ~initial:Design.empty ~reuse:fresh_reuse ());
  let last_clusters = (Problem.Reuse.tallies fresh_reuse).Problem.Reuse.clusters_recosted in
  Alcotest.(check bool) "the last step lacks some clusters" true (last_clusters < all_clusters);
  Alcotest.(check int) "nothing recosted" all_clusters (build last);
  Alcotest.(check int) "the missing clusters evicted" (all_clusters - last_clusters)
    (Cost_cache.stats (Problem.Reuse.memo reuse)).Cost_cache.evictions

let () =
  Alcotest.run "cost_cache"
    [
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest key_sound_prop;
          QCheck_alcotest.to_alcotest cross_snapshot_prop;
          Alcotest.test_case "same_inputs => equal keys across DML (both verdicts)" `Quick
            test_same_inputs_sound;
          Alcotest.test_case "view cardinality refresh recosts the view atom" `Quick
            test_view_cardinality_refresh;
          Alcotest.test_case "a structure added after a refresh = oracle" `Quick
            test_added_structure_after_refresh;
          Alcotest.test_case "ids stay bounded across refreshes" `Quick
            test_ids_bounded_across_refreshes;
        ] );
      ( "problem_build",
        [
          Alcotest.test_case "matrices = naive oracle" `Quick test_build_matches_oracle;
          Alcotest.test_case "solvers = naive oracle" `Quick
            test_solvers_bit_identical_to_oracle;
        ] );
      ( "mechanics",
        [
          Alcotest.test_case "hits and misses" `Quick test_cache_hits_and_misses;
          Alcotest.test_case "eviction keeps answers" `Quick
            test_cache_eviction_keeps_answers;
        ] );
    ]
