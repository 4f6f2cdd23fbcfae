(* Core advisor tests: configuration spaces, candidates, problem instances,
   every solver's invariants (cross-validated on random instances), the
   merging and greedy heuristics, the advisor façade, the simulator, and
   the online tuner. *)

module Tuple = Cddpd_storage.Tuple
module Schema = Cddpd_catalog.Schema
module Index_def = Cddpd_catalog.Index_def
module Design = Cddpd_catalog.Design
module Ast = Cddpd_sql.Ast
module Parser = Cddpd_sql.Parser
module Database = Cddpd_engine.Database
module Cost_model = Cddpd_engine.Cost_model
module Config_space = Cddpd_core.Config_space
module Candidates = Cddpd_core.Candidates
module Problem = Cddpd_core.Problem
module Solution = Cddpd_core.Solution
module Optimizer = Cddpd_core.Optimizer
module Merging = Cddpd_core.Merging
module Greedy_seq = Cddpd_core.Greedy_seq
module Advisor = Cddpd_core.Advisor
module Simulator = Cddpd_core.Simulator
module Online_tuner = Cddpd_core.Online_tuner
module Rng = Cddpd_util.Rng

let index columns = Index_def.make ~table:"t" ~columns

(* -- Config_space -------------------------------------------------------------- *)

let test_space_single_index () =
  let space = Config_space.single_index [ index [ "a" ]; index [ "b" ] ] in
  Alcotest.(check int) "empty + 2 singletons" 3 (Config_space.size space);
  Alcotest.(check bool) "empty present" true
    (Config_space.id_of space Design.empty <> None)

module Structure = Cddpd_catalog.Structure

let test_space_enumerate_counts () =
  let candidates =
    List.map Structure.index [ index [ "a" ]; index [ "b" ]; index [ "c" ] ]
  in
  let size_of _ = 1 in
  let all = Config_space.enumerate ~candidates ~size_of () in
  Alcotest.(check int) "2^3 subsets" 8 (Config_space.size all);
  let capped = Config_space.enumerate ~candidates ~max_structures:1 ~size_of () in
  Alcotest.(check int) "empty + 3" 4 (Config_space.size capped);
  let pairs = Config_space.enumerate ~candidates ~max_structures:2 ~size_of () in
  Alcotest.(check int) "1 + 3 + 3" 7 (Config_space.size pairs)

let test_space_enumerate_space_bound () =
  let candidates = List.map Structure.index [ index [ "a" ]; index [ "b" ] ] in
  let size_of _ = 10 in
  let bounded =
    Config_space.enumerate ~candidates ~space_bound_bytes:10 ~size_of ()
  in
  (* {} (0), {a} (10), {b} (10) fit; {a,b} (20) does not. *)
  Alcotest.(check int) "bound excludes pairs" 3 (Config_space.size bounded);
  let tight = Config_space.enumerate ~candidates ~space_bound_bytes:0 ~size_of () in
  Alcotest.(check int) "only empty fits" 1 (Config_space.size tight)

let string_contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_space_enumerate_uncapped_boundary () =
  let many n =
    List.init n (fun i -> Structure.index (index [ Printf.sprintf "c%02d" i ]))
  in
  let size_of _ = 1 in
  (* 21 uncapped candidates would mean 2^21 subsets: refuse with a message
     that points at the two escape hatches. *)
  (match Config_space.enumerate ~candidates:(many 21) ~size_of () with
  | _ -> Alcotest.fail "expected Invalid_argument for 21 uncapped candidates"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "message names max_structures" true
        (string_contains msg "max_structures");
      Alcotest.(check bool) "message names the pruned pipeline" true
        (string_contains msg "--prune"));
  (* The same candidates are fine once the configuration width is capped. *)
  Alcotest.(check int) "21 capped singletons" 22
    (Config_space.size
       (Config_space.enumerate ~candidates:(many 21) ~max_structures:1 ~size_of ()));
  Alcotest.(check int) "pairs at the boundary: 1 + 20 + C(20,2)" 211
    (Config_space.size
       (Config_space.enumerate ~candidates:(many 20) ~max_structures:2 ~size_of ()))

let test_space_dedup_and_lookup () =
  let d = Design.singleton (index [ "a" ]) in
  let space = Config_space.of_designs [ Design.empty; d; d; Design.empty ] in
  Alcotest.(check int) "deduplicated" 2 (Config_space.size space);
  Alcotest.(check int) "id stable" (Config_space.id_of_exn space d)
    (Config_space.id_of_exn space (Design.singleton (index [ "a" ])));
  Alcotest.(check bool) "design roundtrip" true
    (Design.equal d (Config_space.design space (Config_space.id_of_exn space d)))

let test_space_restrict () =
  let space =
    Config_space.single_index [ index [ "a" ]; index [ "b" ]; index [ "c" ] ]
  in
  let sub, mapping = Config_space.restrict space [ 2; 0 ] in
  Alcotest.(check int) "two configs" 2 (Config_space.size sub);
  Alcotest.(check (array int)) "mapping" [| 2; 0 |] mapping;
  Alcotest.(check bool) "designs preserved" true
    (Design.equal (Config_space.design sub 0) (Config_space.design space 2))

(* -- Candidates ----------------------------------------------------------------- *)

let paper_schema =
  Schema.table "t"
    [
      ("a", Schema.Int_type);
      ("b", Schema.Int_type);
      ("c", Schema.Int_type);
      ("d", Schema.Int_type);
    ]

let w1_statements () =
  Cddpd_workload.Spec.generate_flat
    (Cddpd_workload.Workloads.w1 ~scale:0.1 ())
    ~table:"t" ~value_range:100 ~seed:2

let test_candidates_recover_paper_space () =
  (* On the W1 workload, frequency-paired composites are exactly I(a,b)
     and I(c,d). *)
  let candidates =
    Candidates.from_statements paper_schema ~composite_pairs:2 (w1_statements ())
  in
  let names = List.map Index_def.name candidates in
  List.iter
    (fun expected ->
      if not (List.mem expected names) then Alcotest.failf "missing candidate %s" expected)
    [ "I(a)"; "I(b)"; "I(c)"; "I(d)"; "I(a,b)"; "I(c,d)" ];
  Alcotest.(check int) "exactly the paper's six" 6 (List.length candidates)

let test_candidates_frequencies_ordered () =
  let freqs = Candidates.column_frequencies paper_schema (w1_statements ()) in
  let rec nonincreasing xs =
    match xs with
    | (_, a) :: ((_, b) :: _ as rest) -> a >= b && nonincreasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "sorted by frequency" true (nonincreasing freqs);
  Alcotest.(check int) "all four columns" 4 (List.length freqs)

let test_candidates_ignore_other_tables () =
  let statements = [| Parser.parse_exn "SELECT x FROM other WHERE x = 1" |] in
  Alcotest.(check int) "nothing for t" 0
    (List.length (Candidates.from_statements paper_schema statements))

let test_view_candidates () =
  let statements =
    Array.append (w1_statements ())
      (Cddpd_workload.Report_gen.segment ~table:"t" ~group_by:"c"
         ~sum_columns:[ "a" ] ~n:50 ~value_range:100 ~seed:3 ())
  in
  let views = Candidates.view_candidates paper_schema statements in
  Alcotest.(check (list string)) "one view on c" [ "MV(c)" ]
    (List.map Cddpd_catalog.View_def.name views);
  let all = Candidates.structures_from_statements paper_schema ~composite_pairs:2 statements in
  Alcotest.(check int) "6 indexes + 1 view" 7 (List.length all)

let test_view_candidates_none_without_aggregates () =
  Alcotest.(check int) "no views from point queries" 0
    (List.length (Candidates.view_candidates paper_schema (w1_statements ())))

(* Merged per-window tallies give the candidates of the concatenated
   history, in the same order.  Few statements over few columns make
   frequency ties common; aggregate windows add views, a text column and
   another table's statements must be ignored. *)
let tally_schema =
  Schema.table "t"
    [
      ("a", Schema.Int_type);
      ("b", Schema.Int_type);
      ("c", Schema.Int_type);
      ("d", Schema.Int_type);
      ("e", Schema.Text_type);
    ]

let gen_tally_window =
  QCheck.Gen.(
    let column = oneofl [ "a"; "b"; "c"; "d"; "e" ] in
    let predicate =
      map2
        (fun column op -> Ast.Cmp { column; op; value = Tuple.Int 1 })
        column
        (oneofl [ Ast.Eq; Ast.Lt ])
    in
    let where = list_size (int_bound 3) predicate in
    let statement =
      frequency
        [
          ( 4,
            map2
              (fun table where -> Ast.Select { projection = Ast.Star; table; where })
              (frequencyl [ (5, "t"); (1, "other") ])
              where );
          ( 2,
            map2
              (fun group_by where ->
                Ast.Select_agg { table = "t"; group_by; aggregate = Ast.Count_star; where })
              column where );
          (1, map (fun where -> Ast.Delete { table = "t"; where }) where);
          (1, map (fun where -> Ast.Update { table = "t"; assignments = []; where }) where);
          (1, return (Ast.Insert { table = "t"; values = [] }));
        ]
    in
    map Array.of_list (list_size (int_bound 6) statement))

let tally_merge_prop =
  QCheck.Test.make ~name:"merged window tallies = tally of the concatenation" ~count:300
    (QCheck.make
       ~print:(fun (pairs, windows) ->
         Printf.sprintf "composite_pairs %d\n%s" pairs
           (String.concat "\n--\n"
              (List.map
                 (fun w ->
                   String.concat "\n" (Array.to_list (Array.map Cddpd_sql.Printer.to_string w)))
                 windows)))
       QCheck.Gen.(pair (int_bound 3) (list_size (int_range 1 5) gen_tally_window)))
    (fun (composite_pairs, windows) ->
      let expected =
        Candidates.structures_from_statements tally_schema ~composite_pairs
          (Array.concat windows)
      in
      let tallies = List.map (Candidates.tally tally_schema) windows in
      let merged_left = List.fold_left Candidates.merge Candidates.empty_tally tallies in
      let merged_right = List.fold_right Candidates.merge tallies Candidates.empty_tally in
      List.for_all
        (fun merged ->
          List.equal Structure.equal expected
            (Candidates.structures_of_tally tally_schema ~composite_pairs merged))
        [ merged_left; merged_right ])

(* A window's tally taken over its cost-identity clusters, each
   representative weighted by its cluster's size, equals the tally of
   every statement: members of a cluster share a cost key, which names
   their table, predicate columns and grouping column.  Serve tallies its
   history windows this way. *)
let tally_clusters_prop =
  let module Cost_key = Cddpd_engine.Cost_key in
  let module Compress = Cddpd_workload.Compress in
  let stats = Cddpd_engine.Table_stats.make ~row_count:1000 ~page_count:10 ~histograms:[] in
  QCheck.Test.make ~name:"cluster-weighted tally = statement tally" ~count:300
    (QCheck.make
       ~print:(fun w ->
         String.concat "\n" (Array.to_list (Array.map Cddpd_sql.Printer.to_string w)))
       QCheck.Gen.(map Array.concat (list_size (int_range 1 8) gen_tally_window)))
    (fun statements ->
      let keys = Array.map (fun s -> Cost_key.id (Cost_key.statement stats s)) statements in
      let c = Compress.cluster_by ~hash:Cost_key.id_hash ~equal:Cost_key.id_equal keys in
      Candidates.tally_weighted tally_schema
        (Array.map (fun i -> statements.(i)) c.Compress.representatives)
        ~weights:c.Compress.counts
      = Candidates.tally tally_schema statements)

let index_columns structure =
  match Structure.as_index structure with
  | Some ix -> Some (Index_def.columns ix)
  | None -> None

let test_candidates_generate_multi_column () =
  let statements = w1_statements () in
  let generated = Candidates.generate paper_schema statements in
  Alcotest.(check bool) "non-empty" true (generated <> []);
  (* Deterministic: same statements, same candidates in the same order. *)
  Alcotest.(check (list string)) "deterministic"
    (List.map Structure.name generated)
    (List.map Structure.name (Candidates.generate paper_schema statements));
  (* Closed under prefixes: every proper prefix of a composite is present. *)
  let column_lists = List.filter_map index_columns generated in
  List.iter
    (fun columns ->
      let rec prefixes acc rest =
        match rest with
        | [] | [ _ ] -> ()
        | c :: tail ->
            let prefix = List.rev (c :: acc) in
            if not (List.mem prefix column_lists) then
              Alcotest.failf "missing prefix I(%s)" (String.concat "," prefix);
            prefixes (c :: acc) tail
      in
      prefixes [] columns)
    column_lists;
  (* max_width truncates composites; max_candidates caps the list. *)
  List.iter
    (fun columns ->
      Alcotest.(check bool) "width <= 2" true (List.length columns <= 2))
    (List.filter_map index_columns (Candidates.generate paper_schema ~max_width:2 statements));
  Alcotest.(check int) "capped at 3" 3
    (List.length (Candidates.generate paper_schema ~max_candidates:3 statements));
  Alcotest.(check bool) "max_width 0 rejected" true
    (match Candidates.generate paper_schema ~max_width:0 statements with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_candidates_generate_includes_views () =
  let statements =
    Array.append (w1_statements ())
      (Cddpd_workload.Report_gen.segment ~table:"t" ~group_by:"c"
         ~sum_columns:[ "a" ] ~n:50 ~value_range:100 ~seed:3 ())
  in
  let generated = Candidates.generate paper_schema statements in
  Alcotest.(check bool) "MV(c) generated" true
    (List.exists (fun s -> Structure.name s = "MV(c)") generated)

(* -- Problem (synthetic matrices) -------------------------------------------------- *)

(* A tiny synthetic space: ids 0..n-1 with designs only used for display. *)
let synthetic_space n =
  Config_space.of_designs
    (Design.empty
    :: List.init (n - 1) (fun i -> Design.singleton (index [ String.make 1 (Char.chr (97 + i)) ])))

let dummy_steps n = Array.make n [||]

let synthetic_problem ?(count_initial_change = false) ~exec ~trans () =
  let n_configs = Array.length trans in
  Problem.of_matrices
    ~steps:(dummy_steps (Array.length exec))
    ~space:(synthetic_space n_configs) ~initial:0 ~exec ~trans ~count_initial_change ()

let test_problem_of_matrices_validation () =
  let reject f = match f () with _ -> false | exception Invalid_argument _ -> true in
  Alcotest.(check bool) "negative exec" true
    (reject (fun () ->
         synthetic_problem ~exec:[| [| -1.0; 0.0 |] |] ~trans:[| [| 0.; 0. |]; [| 0.; 0. |] |] ()));
  Alcotest.(check bool) "nonzero self trans" true
    (reject (fun () ->
         synthetic_problem ~exec:[| [| 0.0; 0.0 |] |] ~trans:[| [| 1.; 0. |]; [| 0.; 0. |] |] ()));
  Alcotest.(check bool) "ragged exec" true
    (reject (fun () ->
         synthetic_problem ~exec:[| [| 0.0 |] |] ~trans:[| [| 0.; 0. |]; [| 0.; 0. |] |] ()))

let test_problem_path_cost () =
  let exec = [| [| 1.; 10. |]; [| 10.; 1. |] |] in
  let trans = [| [| 0.; 5. |]; [| 5.; 0. |] |] in
  let problem = synthetic_problem ~exec ~trans () in
  (* Path [0;1]: trans 0->0 (source, free) + 1 + trans 0->1 (5) + 1 = 7. *)
  Alcotest.(check (float 1e-9)) "cost" 7.0 (Problem.path_cost problem [| 0; 1 |]);
  Alcotest.(check int) "changes" 1 (Problem.path_changes problem [| 0; 1 |])

let test_problem_count_initial_change () =
  let exec = [| [| 1.; 1. |] |] in
  let trans = [| [| 0.; 0. |]; [| 0.; 0. |] |] in
  let free = synthetic_problem ~exec ~trans () in
  let counted = synthetic_problem ~count_initial_change:true ~exec ~trans () in
  Alcotest.(check int) "free initial" 0 (Problem.path_changes free [| 1 |]);
  Alcotest.(check int) "counted initial" 1 (Problem.path_changes counted [| 1 |])

(* Random instance generator for solver cross-validation. *)
let random_problem_gen =
  QCheck.Gen.(
    let cost = map (fun i -> float_of_int i) (int_bound 40) in
    int_range 1 6 >>= fun n_steps ->
    int_range 2 4 >>= fun n_configs ->
    array_size (return n_steps) (array_size (return n_configs) cost) >>= fun exec ->
    array_size (return n_configs) (array_size (return n_configs) cost) >>= fun trans ->
    bool >>= fun count_initial_change ->
    (* Zero the diagonal to satisfy the invariant. *)
    Array.iteri (fun i row -> row.(i) <- 0.0) trans;
    return (synthetic_problem ~count_initial_change ~exec ~trans ()))

let random_problem =
  QCheck.make
    ~print:(fun p ->
      Printf.sprintf "steps=%d configs=%d" (Problem.n_steps p) (Problem.n_configs p))
    random_problem_gen

let all_assignments problem =
  let n = Problem.n_steps problem and m = Problem.n_configs problem in
  let rec go step acc =
    if step = n then [ Array.of_list (List.rev acc) ]
    else List.concat_map (fun c -> go (step + 1) (c :: acc)) (List.init m (fun c -> c))
  in
  go 0 []

let brute_force_optimum problem ~k =
  List.fold_left
    (fun acc path ->
      if Problem.path_changes problem path <= k then
        Float.min acc (Problem.path_cost problem path)
      else acc)
    infinity (all_assignments problem)

let solve_cost problem method_name k =
  match Optimizer.solve problem ~method_name ?k () with
  | Ok s -> Some s.Solution.cost
  | Error _ -> None

let kaware_optimal_prop =
  QCheck.Test.make ~name:"kaware solver = brute force on problem instances" ~count:150
    (QCheck.pair random_problem (QCheck.int_bound 3))
    (fun (problem, k) ->
      let expected = brute_force_optimum problem ~k in
      match solve_cost problem Solution.Kaware (Some k) with
      | Some cost -> Float.abs (cost -. expected) < 1e-6
      | None -> expected = infinity)

let heuristics_feasible_and_bounded_prop =
  QCheck.Test.make ~name:"heuristics feasible; cost >= kaware optimum" ~count:150
    (QCheck.pair random_problem (QCheck.int_bound 3))
    (fun (problem, k) ->
      let optimal = brute_force_optimum problem ~k in
      List.for_all
        (fun method_name ->
          match Optimizer.solve problem ~method_name ~k () with
          | Ok s ->
              s.Solution.changes <= k && s.Solution.cost >= optimal -. 1e-6
          | Error Optimizer.Infeasible -> optimal = infinity
          | Error (Optimizer.Ranking_gave_up _) -> true)
        [ Solution.Merging; Solution.Greedy_seq; Solution.Hybrid ])

let ranking_optimal_prop =
  QCheck.Test.make ~name:"ranking solver matches kaware optimum" ~count:100
    (QCheck.pair random_problem (QCheck.int_bound 3))
    (fun (problem, k) ->
      match
        ( solve_cost problem Solution.Ranking (Some k),
          solve_cost problem Solution.Kaware (Some k) )
      with
      | Some r, Some kw -> Float.abs (r -. kw) < 1e-6
      | None, _ | _, None -> true (* gave up or infeasible; covered elsewhere *))

let unconstrained_lower_bound_prop =
  QCheck.Test.make ~name:"unconstrained cost lower-bounds every constrained cost"
    ~count:100
    (QCheck.pair random_problem (QCheck.int_bound 4))
    (fun (problem, k) ->
      let unconstrained = Optimizer.unconstrained problem in
      match solve_cost problem Solution.Kaware (Some k) with
      | Some cost -> cost +. 1e-9 >= unconstrained.Solution.cost
      | None -> true)

let kaware_k_at_least_l_equals_unconstrained_prop =
  QCheck.Test.make ~name:"kaware with k >= l equals unconstrained" ~count:100
    random_problem (fun problem ->
      let unconstrained = Optimizer.unconstrained problem in
      let l = unconstrained.Solution.changes in
      match solve_cost problem Solution.Kaware (Some l) with
      | Some cost -> Float.abs (cost -. unconstrained.Solution.cost) < 1e-6
      | None -> false)

let merging_reduces_changes_prop =
  QCheck.Test.make ~name:"merging refines to <= k changes" ~count:150
    (QCheck.pair random_problem (QCheck.int_bound 3))
    (fun (problem, k) ->
      let unconstrained = Optimizer.unconstrained problem in
      let refined = Merging.refine problem ~k unconstrained.Solution.path in
      Problem.path_changes problem refined <= k)

let greedy_subset_prop =
  QCheck.Test.make ~name:"greedy-seq reduced ids include initial and per-step bests"
    ~count:100 random_problem (fun problem ->
      let ids = Greedy_seq.reduced_config_ids problem in
      List.mem problem.Problem.initial ids
      && List.length ids <= Problem.n_configs problem
      && List.for_all (fun id -> id >= 0 && id < Problem.n_configs problem) ids)

let test_optimizer_requires_k () =
  let problem =
    synthetic_problem ~exec:[| [| 1.; 2. |] |] ~trans:[| [| 0.; 1. |]; [| 1.; 0. |] |] ()
  in
  Alcotest.(check bool) "missing k raises" true
    (match Optimizer.solve problem ~method_name:Solution.Kaware () with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_solution_runs () =
  let exec = [| [| 0.; 1. |]; [| 0.; 1. |]; [| 1.; 0. |] |] in
  let trans = [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  let problem = synthetic_problem ~exec ~trans () in
  let solution =
    { Solution.path = [| 0; 0; 1 |]; cost = 0.0; changes = 1;
      method_name = Solution.Unconstrained; elapsed = 0.0 }
  in
  match Solution.runs problem solution with
  | [ (0, 2, d0); (2, 1, d1) ] ->
      Alcotest.(check bool) "first design" true (Design.is_empty d0);
      Alcotest.(check bool) "second design" false (Design.is_empty d1)
  | runs -> Alcotest.failf "unexpected runs (%d)" (List.length runs)

(* -- merging specifics --------------------------------------------------------------- *)

let test_merging_paper_example () =
  (* The paper's example: n=3, configs {0=empty, 1={IX}}, unconstrained
     optimum [0;1;0] with l=2 changes, k=1.  Merging must produce a
     schedule with at most one change. *)
  let exec = [| [| 1.; 5. |]; [| 50.; 1. |]; [| 1.; 5. |] |] in
  let trans = [| [| 0.; 10. |]; [| 1.; 0. |] |] in
  let problem = synthetic_problem ~exec ~trans () in
  let unconstrained = Optimizer.unconstrained problem in
  Alcotest.(check (array int)) "unconstrained flips" [| 0; 1; 0 |]
    unconstrained.Solution.path;
  let refined = Merging.refine problem ~k:1 unconstrained.Solution.path in
  Alcotest.(check bool) "at most 1 change" true (Problem.path_changes problem refined <= 1)

let test_merging_k0_initial_counted () =
  let exec = [| [| 9.; 1. |]; [| 9.; 1. |] |] in
  let trans = [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  let problem = synthetic_problem ~count_initial_change:true ~exec ~trans () in
  let refined = Merging.refine problem ~k:0 [| 1; 1 |] in
  Alcotest.(check (array int)) "forced back to initial" [| 0; 0 |] refined

(* -- K_advisor ------------------------------------------------------------------------ *)

module K_advisor = Cddpd_core.K_advisor

let test_k_advisor_profile_monotone () =
  (* Three phases, expensive transitions: benefits concentrate in the
     first two changes. *)
  let exec =
    [| [| 1.; 50.; 50. |]; [| 1.; 50.; 50. |]; [| 50.; 1.; 50. |];
       [| 50.; 1.; 50. |]; [| 50.; 50.; 1. |]; [| 50.; 50.; 1. |] |]
  in
  let trans =
    [| [| 0.; 5.; 5. |]; [| 5.; 0.; 5. |]; [| 5.; 5.; 0. |] |]
  in
  let problem = synthetic_problem ~exec ~trans () in
  let points = K_advisor.profile problem in
  (* Cost nonincreasing in k, capture nondecreasing, endpoints exact. *)
  let rec check_monotone points =
    match points with
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "cost nonincreasing" true (a.K_advisor.cost +. 1e-9 >= b.K_advisor.cost);
        Alcotest.(check bool) "capture nondecreasing" true
          (a.K_advisor.captured <= b.K_advisor.captured +. 1e-9);
        check_monotone rest
    | [ last ] -> Alcotest.(check (float 1e-9)) "full capture at l" 1.0 last.K_advisor.captured
    | [] -> Alcotest.fail "empty profile"
  in
  check_monotone points;
  (match points with
  | first :: _ -> Alcotest.(check (float 1e-9)) "zero capture at k=0" 0.0 first.K_advisor.captured
  | [] -> ())

let test_k_advisor_suggests_elbow () =
  (* Two big shifts and tiny wobbles: k=2 captures nearly everything. *)
  let big = 100.0 and small = 2.0 in
  let exec =
    [| [| 1.; big |]; [| 1. +. small; big |]; [| 1.; big |];
       [| big; 1. |]; [| big; 1. +. small |]; [| big; 1. |] |]
  in
  let trans = [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  let problem = synthetic_problem ~exec ~trans () in
  let r = K_advisor.suggest ~capture_target:0.9 problem in
  Alcotest.(check bool) "small k suffices" true (r.K_advisor.suggested_k <= 2);
  Alcotest.(check bool) "k below l" true
    (r.K_advisor.suggested_k <= r.K_advisor.unconstrained_changes)

let test_k_advisor_flat_instance () =
  (* No benefit at all: suggest k=0. *)
  let exec = [| [| 1.; 1. |]; [| 1.; 1. |] |] in
  let trans = [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  let problem = synthetic_problem ~exec ~trans () in
  let r = K_advisor.suggest problem in
  Alcotest.(check int) "k = 0" 0 r.K_advisor.suggested_k

let test_k_advisor_invalid_target () =
  let exec = [| [| 1.; 1. |] |] in
  let trans = [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  let problem = synthetic_problem ~exec ~trans () in
  Alcotest.(check bool) "target > 1 rejected" true
    (match K_advisor.suggest ~capture_target:1.5 problem with
    | _ -> false
    | exception Invalid_argument _ -> true)

let k_advisor_capture_prop =
  QCheck.Test.make ~name:"suggested k meets the capture target" ~count:100 random_problem
    (fun problem ->
      let r = K_advisor.suggest ~capture_target:0.75 problem in
      match List.find_opt (fun p -> p.K_advisor.k = r.K_advisor.suggested_k) r.K_advisor.profile with
      | Some p ->
          p.K_advisor.captured >= 0.75 -. 1e-9
          || r.K_advisor.suggested_k = r.K_advisor.unconstrained_changes
      | None -> false)

(* -- advisor / simulator / online tuner on a real database ---------------------------- *)

let make_db ?(rows = 4_000) () =
  let db = Database.create ~pool_capacity:2048 [ paper_schema ] in
  let data =
    Cddpd_workload.Data_gen.uniform_rows ~columns:4 ~rows ~value_range:(rows / 5) ~seed:3
  in
  Database.load db ~table:"t" data;
  db

let small_steps () =
  Cddpd_workload.Spec.generate
    (Cddpd_workload.Workloads.w1 ~scale:0.04 ())
    ~table:"t" ~value_range:800 ~seed:5

let test_advisor_end_to_end () =
  let db = make_db () in
  let steps = small_steps () in
  let request =
    { (Advisor.default_request ~steps ~table:"t") with
      Advisor.k = Some 2; method_name = Solution.Kaware }
  in
  let recommendation = Advisor.recommend_exn db request in
  Alcotest.(check int) "one design per step" (Array.length steps)
    (Array.length recommendation.Advisor.schedule);
  Alcotest.(check bool) "at most 2 changes" true
    (recommendation.Advisor.solution.Solution.changes <= 2);
  (* The recommended designs must come from a single-index space. *)
  Array.iter
    (fun d -> Alcotest.(check bool) "at most one index" true (Design.cardinality d <= 1))
    recommendation.Advisor.schedule

let test_advisor_auto_candidates_match_paper () =
  let db = make_db () in
  let steps = small_steps () in
  let request = Advisor.default_request ~steps ~table:"t" in
  let recommendation = Advisor.recommend_exn db request in
  Alcotest.(check int) "paper's 7 configurations" 7
    (Problem.n_configs recommendation.Advisor.problem)

let test_advisor_unknown_table () =
  let db = make_db () in
  let request = Advisor.default_request ~steps:(small_steps ()) ~table:"nope" in
  Alcotest.(check bool) "unknown table raises" true
    (match Advisor.recommend db request with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_advisor_space_bound_shrinks_space () =
  let db = make_db () in
  let steps = small_steps () in
  let request =
    { (Advisor.default_request ~steps ~table:"t") with Advisor.space_bound_bytes = Some 1 }
  in
  let recommendation = Advisor.recommend_exn db request in
  (* Only the empty design fits one byte. *)
  Alcotest.(check int) "only empty config" 1
    (Problem.n_configs recommendation.Advisor.problem)

(* -- design-space scaling: compression and dominance pruning ----------------------- *)

module Pruner = Cddpd_core.Pruner

(* One shared database for the scaling properties: the workloads vary per
   iteration, the statistics do not. *)
let scaling_db = lazy (make_db ())

let random_workload =
  let gen =
    QCheck.Gen.(
      oneofl [ "W1"; "W2"; "W3" ] >>= fun name ->
      int_range 1 10_000 >>= fun seed ->
      int_range 200 2_000 >>= fun value_range ->
      return (name, seed, value_range))
  in
  QCheck.make
    ~print:(fun (name, seed, value_range) ->
      Printf.sprintf "%s seed=%d value_range=%d" name seed value_range)
    gen

let workload_steps (name, seed, value_range) =
  Cddpd_workload.Spec.generate
    (Cddpd_workload.Workloads.by_name name ~scale:0.04 ())
    ~table:"t" ~value_range ~seed

(* An exact solver signature: hex-printed cost plus the path, so two
   problems agree iff the solver behaved bit-identically on both.  Ranking
   runs under tight (deterministic) budgets: at small k its rank explosion
   would otherwise dominate the whole suite. *)
let solver_signature problem method_name k =
  match
    Optimizer.solve problem ~method_name ?k ~max_paths:20_000 ~max_queue:65_536 ()
  with
  | Ok s ->
      Printf.sprintf "ok %h %d [%s]" s.Solution.cost s.Solution.changes
        (String.concat ";" (Array.to_list (Array.map string_of_int s.Solution.path)))
  | Error Optimizer.Infeasible -> "infeasible"
  | Error (Optimizer.Ranking_gave_up _) -> "gave up"
  | exception Invalid_argument _ -> "k required"

let all_methods =
  [ Solution.Unconstrained; Solution.Kaware; Solution.Ranking; Solution.Merging;
    Solution.Greedy_seq; Solution.Hybrid ]

let compression_bit_identity_prop =
  QCheck.Test.make ~name:"workload compression is bit-identical (matrices and solvers)"
    ~count:9 random_workload (fun spec ->
      let db = Lazy.force scaling_db in
      let params = Database.params db in
      let stats_of table = Database.table_stats db table in
      let steps = workload_steps spec in
      let flat = Array.concat (Array.to_list steps) in
      let candidates =
        Candidates.structures_from_statements paper_schema ~composite_pairs:2 flat
      in
      let size_of s =
        Cost_model.structure_size_bytes params ~stats:(stats_of (Structure.table s)) s
      in
      let space = Config_space.enumerate ~candidates ~max_structures:1 ~size_of () in
      let compressed =
        Problem.build ~params ~stats_of ~steps ~space ~initial:Design.empty ()
      in
      let plain = Naive.problem params ~stats_of compressed in
      Naive.matrix_same_bits plain.Problem.exec compressed.Problem.exec
      && Naive.matrix_same_bits plain.Problem.trans compressed.Problem.trans
      && List.for_all
           (fun method_name ->
             List.for_all
               (fun k ->
                 String.equal
                   (solver_signature plain method_name k)
                   (solver_signature compressed method_name k))
               [ None; Some 1; Some 2; Some 3 ])
           all_methods)

let pruning_preserves_atomic_optimum_prop =
  QCheck.Test.make
    ~name:"dominance pruning preserves the optimum on atomic spaces" ~count:9
    (QCheck.pair random_workload (QCheck.int_range 1 3))
    (fun (spec, k) ->
      let db = Lazy.force scaling_db in
      let params = Database.params db in
      let stats_of table = Database.table_stats db table in
      let steps = workload_steps spec in
      let flat = Array.concat (Array.to_list steps) in
      let candidates = Candidates.generate paper_schema flat in
      let size_of s =
        Cost_model.structure_size_bytes params ~stats:(stats_of (Structure.table s)) s
      in
      let full_space =
        Config_space.enumerate ~candidates ~max_structures:1 ~size_of ()
      in
      let scored = Pruner.score ~params ~stats_of ~steps candidates in
      let survivors, pruned_count = Pruner.dominance_prune scored in
      let pruned_space = Pruner.space ~max_structures:1 survivors in
      Alcotest.(check int) "survivors + pruned = candidates"
        (List.length candidates)
        (List.length survivors + pruned_count);
      let build space =
        Problem.build ~params ~stats_of ~steps ~space ~initial:Design.empty ()
      in
      let full = build full_space and pruned = build pruned_space in
      (* The pruned space is a subset, so the heuristics need not agree;
         exactness is claimed for the optimal solver. *)
      match
        ( Optimizer.solve full ~method_name:Solution.Kaware ~k (),
          Optimizer.solve pruned ~method_name:Solution.Kaware ~k () )
      with
      | Ok a, Ok b -> Naive.same_bits a.Solution.cost b.Solution.cost
      | Error _, Error _ -> true
      | Ok _, Error _ | Error _, Ok _ -> false)

let test_simulator_replay () =
  let db = make_db () in
  let steps = small_steps () in
  let n = Array.length steps in
  let schedule = Array.make n (Design.singleton (index [ "a"; "b" ])) in
  let report = Simulator.run db ~steps ~schedule in
  Alcotest.(check int) "per-step reports" n (Array.length report.Simulator.steps);
  Alcotest.(check bool) "transition I/O happened once" true
    (report.Simulator.steps.(0).Simulator.trans_logical_io > 0
    && report.Simulator.steps.(1).Simulator.trans_logical_io = 0);
  Alcotest.(check bool) "execution I/O counted" true (report.Simulator.exec_logical_io > 0);
  Alcotest.(check int) "totals add up"
    report.Simulator.total_logical_io
    (report.Simulator.exec_logical_io + report.Simulator.trans_logical_io)

let test_simulator_static_empty_slower () =
  (* A good schedule should replay with less I/O than no indexes at all. *)
  let steps = small_steps () in
  let db1 = make_db () in
  let n = Array.length steps in
  let empty_report = Simulator.run db1 ~steps ~schedule:(Array.make n Design.empty) in
  let db2 = make_db () in
  let problem =
    Problem.build ~params:(Database.params db2)
      ~stats_of:(fun table -> Database.table_stats db2 table)
      ~steps
      ~space:(Config_space.single_index
                [ index [ "a" ]; index [ "b" ]; index [ "c" ]; index [ "d" ];
                  index [ "a"; "b" ]; index [ "c"; "d" ] ])
      ~initial:Design.empty ()
  in
  let solution =
    match Optimizer.solve problem ~method_name:Solution.Kaware ~k:2 () with
    | Ok s -> s
    | Error _ -> Alcotest.fail "solver failed"
  in
  let tuned_report =
    Simulator.run db2 ~steps ~schedule:(Solution.schedule problem solution)
  in
  Alcotest.(check bool) "tuned replay cheaper" true
    (tuned_report.Simulator.total_logical_io < empty_report.Simulator.total_logical_io)

let test_simulator_length_mismatch () =
  let db = make_db ~rows:100 () in
  Alcotest.(check bool) "length mismatch raises" true
    (match Simulator.run db ~steps:[| [||]; [||] |] ~schedule:[| Design.empty |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_online_tuner_properties () =
  let exec =
    [| [| 10.; 0. |]; [| 10.; 0. |]; [| 10.; 0. |]; [| 0.; 10. |]; [| 0.; 10. |] |]
  in
  let trans = [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  let problem = synthetic_problem ~exec ~trans () in
  let path = Online_tuner.run problem in
  Alcotest.(check int) "starts on the initial config" 0 path.(0);
  Alcotest.(check bool) "eventually switches to the cheap config" true
    (Array.exists (fun c -> c = 1) path);
  (* Online decisions are causal: rerunning yields the same path. *)
  Alcotest.(check (array int)) "deterministic" path (Online_tuner.run problem)

let online_tuner_valid_path_prop =
  QCheck.Test.make ~name:"online tuner emits a valid assignment" ~count:100 random_problem
    (fun problem ->
      let path = Online_tuner.run problem in
      Array.length path = Problem.n_steps problem
      && Array.for_all (fun c -> c >= 0 && c < Problem.n_configs problem) path
      && path.(0) = problem.Problem.initial)

let () =
  Alcotest.run "core"
    [
      ( "config_space",
        [
          Alcotest.test_case "single index space" `Quick test_space_single_index;
          Alcotest.test_case "enumerate counts" `Quick test_space_enumerate_counts;
          Alcotest.test_case "space bound" `Quick test_space_enumerate_space_bound;
          Alcotest.test_case "uncapped boundary" `Quick
            test_space_enumerate_uncapped_boundary;
          Alcotest.test_case "dedup and lookup" `Quick test_space_dedup_and_lookup;
          Alcotest.test_case "restrict" `Quick test_space_restrict;
        ] );
      ( "candidates",
        [
          Alcotest.test_case "recover paper space" `Quick test_candidates_recover_paper_space;
          Alcotest.test_case "frequency order" `Quick test_candidates_frequencies_ordered;
          Alcotest.test_case "other tables ignored" `Quick test_candidates_ignore_other_tables;
          Alcotest.test_case "view candidates" `Quick test_view_candidates;
          Alcotest.test_case "no spurious view candidates" `Quick
            test_view_candidates_none_without_aggregates;
          Alcotest.test_case "multi-column generator" `Quick
            test_candidates_generate_multi_column;
          Alcotest.test_case "generator keeps views" `Quick
            test_candidates_generate_includes_views;
          QCheck_alcotest.to_alcotest tally_merge_prop;
          QCheck_alcotest.to_alcotest tally_clusters_prop;
        ] );
      ( "problem",
        [
          Alcotest.test_case "matrix validation" `Quick test_problem_of_matrices_validation;
          Alcotest.test_case "path cost" `Quick test_problem_path_cost;
          Alcotest.test_case "initial change convention" `Quick
            test_problem_count_initial_change;
        ] );
      ( "optimizers",
        [
          Alcotest.test_case "k required" `Quick test_optimizer_requires_k;
          Alcotest.test_case "solution runs" `Quick test_solution_runs;
          QCheck_alcotest.to_alcotest kaware_optimal_prop;
          QCheck_alcotest.to_alcotest heuristics_feasible_and_bounded_prop;
          QCheck_alcotest.to_alcotest ranking_optimal_prop;
          QCheck_alcotest.to_alcotest unconstrained_lower_bound_prop;
          QCheck_alcotest.to_alcotest kaware_k_at_least_l_equals_unconstrained_prop;
          QCheck_alcotest.to_alcotest merging_reduces_changes_prop;
          QCheck_alcotest.to_alcotest greedy_subset_prop;
        ] );
      ( "merging",
        [
          Alcotest.test_case "paper example" `Quick test_merging_paper_example;
          Alcotest.test_case "k=0 with counted initial" `Quick
            test_merging_k0_initial_counted;
        ] );
      ( "k_advisor",
        [
          Alcotest.test_case "profile monotone" `Quick test_k_advisor_profile_monotone;
          Alcotest.test_case "suggests the elbow" `Quick test_k_advisor_suggests_elbow;
          Alcotest.test_case "flat instance" `Quick test_k_advisor_flat_instance;
          Alcotest.test_case "invalid target" `Quick test_k_advisor_invalid_target;
          QCheck_alcotest.to_alcotest k_advisor_capture_prop;
        ] );
      ( "advisor",
        [
          Alcotest.test_case "end to end" `Quick test_advisor_end_to_end;
          Alcotest.test_case "auto candidates" `Quick test_advisor_auto_candidates_match_paper;
          Alcotest.test_case "unknown table" `Quick test_advisor_unknown_table;
          Alcotest.test_case "space bound" `Quick test_advisor_space_bound_shrinks_space;
        ] );
      ( "scaling",
        [
          QCheck_alcotest.to_alcotest compression_bit_identity_prop;
          QCheck_alcotest.to_alcotest pruning_preserves_atomic_optimum_prop;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "replay" `Quick test_simulator_replay;
          Alcotest.test_case "tuned beats empty" `Quick test_simulator_static_empty_slower;
          Alcotest.test_case "length mismatch" `Quick test_simulator_length_mismatch;
        ] );
      ( "online_tuner",
        [
          Alcotest.test_case "switching behaviour" `Quick test_online_tuner_properties;
          QCheck_alcotest.to_alcotest online_tuner_valid_path_prop;
        ] );
    ]
