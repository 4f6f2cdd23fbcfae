(* Experiment harness tests: run every reproduction at a tiny scale and
   check the qualitative claims of the paper (the shapes of Table 2,
   Figure 3 and Figure 4), not the absolute numbers. *)

module Setup = Cddpd_experiments.Setup
module Session = Cddpd_experiments.Session
module Table1 = Cddpd_experiments.Table1
module Table2 = Cddpd_experiments.Table2
module Figure3 = Cddpd_experiments.Figure3
module Figure4 = Cddpd_experiments.Figure4
module Ablation = Cddpd_experiments.Ablation
module Design = Cddpd_catalog.Design
module Solution = Cddpd_core.Solution
module Config_space = Cddpd_core.Config_space

(* One shared tiny session: building it is the expensive part. *)
let session =
  lazy
    (Session.create
       { Setup.test_config with Setup.rows = 8_000; value_range = 1_600; scale = 0.08 })

(* The one-domain run of each experiment, shared by its paper-shape test
   and its width test (which reruns it at wider cell_jobs). *)
let table2 = lazy (Table2.run ~cell_jobs:1 (Lazy.force session))
let figure3 = lazy (Figure3.run ~cell_jobs:1 (Lazy.force session))
let figure4_ks = [ 2; 10; 18 ]
let figure4 = lazy (Figure4.run ~ks:figure4_ks ~repeats:1 ~cell_jobs:1 (Lazy.force session))
let ablation_ks = [ 0; 2 ]
let ablation = lazy (Ablation.run ~ks:ablation_ks ~cell_jobs:1 (Lazy.force session))
let updates_fractions = [ 0.0; 0.5 ]

let updates =
  lazy
    (Cddpd_experiments.Updates.run ~fractions:updates_fractions ~cell_jobs:1
       (Lazy.force session))

let space_bound = lazy (Cddpd_experiments.Space_bound.run ~cell_jobs:1 (Lazy.force session))

let test_setup_paper_space () =
  Alcotest.(check int) "7 configurations" 7 (Config_space.size Setup.paper_space);
  Alcotest.(check int) "6 candidates" 6 (List.length Setup.paper_candidates)

let test_setup_database () =
  let s = Lazy.force session in
  Alcotest.(check int) "rows loaded" 8_000
    (Cddpd_engine.Database.row_count s.Session.db "t");
  Alcotest.(check int) "30 segments" 30 (Array.length s.Session.steps_w1);
  Alcotest.(check int) "segment size" 40 (Array.length s.Session.steps_w1.(0))

let test_table1 () =
  let result = Table1.run ~sample_size:20_000 () in
  Alcotest.(check bool) "observed frequencies track Table 1" true
    (result.Table1.max_deviation < 0.02);
  Alcotest.(check int) "four mixes" 4 (List.length result.Table1.mixes)

let test_table2_shapes () =
  let result = Lazy.force table2 in
  Alcotest.(check int) "30 rows" 30 (List.length result.Table2.rows);
  (* The constrained design changes exactly at the major shifts. *)
  Alcotest.(check int) "k=2 changes" 2 result.Table2.constrained.Solution.changes;
  let k2 = result.Table2.schedule_k2 in
  Alcotest.(check bool) "phase-constant design" true
    (Design.equal k2.(0) k2.(9)
    && Design.equal k2.(10) k2.(19)
    && Design.equal k2.(20) k2.(29)
    && (not (Design.equal k2.(9) k2.(10)))
    && not (Design.equal k2.(19) k2.(20)));
  (* Phase 1 and phase 3 see the same workload, hence the same design. *)
  Alcotest.(check bool) "phases 1 and 3 agree" true (Design.equal k2.(0) k2.(20));
  (* The unconstrained design tracks minor shifts: more changes than k=2. *)
  Alcotest.(check bool) "unconstrained tracks minor shifts" true
    (result.Table2.unconstrained.Solution.changes > 2);
  (* And it is at least as cheap (it is the optimum). *)
  Alcotest.(check bool) "unconstrained is cheaper" true
    (result.Table2.unconstrained.Solution.cost
    <= result.Table2.constrained.Solution.cost)

let test_figure3_shapes () =
  let result = Lazy.force figure3 in
  let find name =
    List.find (fun m -> m.Figure3.workload = name) result.Figure3.measurements
  in
  let w1 = find "W1" and w2 = find "W2" and w3 = find "W3" in
  (* W1 under its own unconstrained design is the 100% baseline. *)
  Alcotest.(check (float 1e-9)) "baseline" 1.0 w1.Figure3.relative_unconstrained;
  (* The constrained design is suboptimal for W1 itself... *)
  Alcotest.(check bool) "W1 slower constrained" true
    (w1.Figure3.relative_constrained > 1.0);
  (* ...but beats the unconstrained design on the perturbed workloads. *)
  Alcotest.(check bool) "W2 better under constrained" true
    (w2.Figure3.relative_constrained < w2.Figure3.relative_unconstrained);
  Alcotest.(check bool) "W3 better under constrained" true
    (w3.Figure3.relative_constrained < w3.Figure3.relative_unconstrained);
  (* W3 (out of phase) suffers the most under the overfitted design. *)
  Alcotest.(check bool) "W3 worst case for unconstrained" true
    (w3.Figure3.relative_unconstrained > w2.Figure3.relative_unconstrained)

(* Figure 4's shapes, read from the solvers' deterministic work counters
   rather than wall-clock seconds: the k-aware DP relaxes more layered
   edges at k = 18 than at k = 2, and more at k = 2 than the plain
   sequence graph has stage edges; merging's work at k = 18 stays below
   twice its work at k = 2; and the constrained optimum's cost never
   rises with k. *)
let test_figure4_shapes () =
  let s = Lazy.force session in
  let problem = s.Session.problem_w1 in
  let graph = Cddpd_core.Problem.to_graph problem in
  let counted counter f =
    let c = Cddpd_obs.Registry.counter counter in
    let before = Cddpd_obs.Counter.value c in
    Cddpd_obs.Registry.with_enabled (fun () -> ignore (f ()));
    Cddpd_obs.Counter.value c - before
  in
  (* The (k+1)-layer graph itself: the DP with no bound to prune by. *)
  let edges k =
    counted "advisor.kaware.edges_relaxed" (fun () ->
        Cddpd_graph.Kaware.solve graph ~k
          ~initial:(Cddpd_core.Problem.initial_for_counting problem))
  in
  let candidates k =
    counted "advisor.merging.candidates_evaluated" (fun () ->
        Cddpd_core.Optimizer.solve problem ~method_name:Solution.Merging ~k ())
  in
  (* The plain sequence graph's stage edges, each relaxed once by the
     unconstrained shortest path. *)
  let n = graph.Cddpd_graph.Staged_dag.n_nodes in
  let unconstrained_edges = (graph.Cddpd_graph.Staged_dag.n_stages - 1) * n * n in
  Alcotest.(check bool) "k-aware grows" true (edges 18 > edges 2);
  Alcotest.(check bool) "k-aware costs more than unconstrained" true
    (edges 2 > unconstrained_edges);
  Alcotest.(check bool) "merging does not blow up with k" true
    (candidates 18 < 2 * candidates 2);
  let result = Lazy.force figure4 in
  let rec nonincreasing = function
    | a :: (b :: _ as rest) -> a >= b && nonincreasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "constrained cost non-increasing in k" true
    (nonincreasing (List.map (fun p -> p.Figure4.kaware_cost) result.Figure4.points))

let test_updates () =
  let result = Lazy.force updates in
  match result.Cddpd_experiments.Updates.points with
  | [ p0; p50 ] ->
      Alcotest.(check bool) "costs rise with update share" true
        (p50.Cddpd_experiments.Updates.constrained_cost
        > p0.Cddpd_experiments.Updates.constrained_cost);
      Alcotest.(check bool) "constrained within budget" true
        (p50.Cddpd_experiments.Updates.constrained_changes <= 2)
  | _ -> Alcotest.fail "expected two points"

let test_views () =
  let s = Lazy.force session in
  let result = Cddpd_experiments.Views.run s in
  (* The reporting phase must be served by a materialized view... *)
  Alcotest.(check bool) "view scheduled" true
    (result.Cddpd_experiments.Views.view_steps > 0);
  (* ...and the dynamic schedule must beat the best static index design. *)
  Alcotest.(check bool) "beats static indexes" true
    (result.Cddpd_experiments.Views.replay_io_constrained
    < result.Cddpd_experiments.Views.replay_io_static_index)

let test_space_bound () =
  let result = Lazy.force space_bound in
  let costs =
    List.map (fun p -> p.Cddpd_experiments.Space_bound.cost) result.Cddpd_experiments.Space_bound.points
  in
  (* Cost is nonincreasing as the budget grows. *)
  let rec nonincreasing xs =
    match xs with
    | a :: (b :: _ as rest) -> a +. 1e-9 >= b && nonincreasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "cost nonincreasing in b" true (nonincreasing costs);
  (match result.Cddpd_experiments.Space_bound.points with
  | first :: _ ->
      Alcotest.(check int) "tightest bound leaves only the empty config" 1
        first.Cddpd_experiments.Space_bound.n_configs
  | [] -> Alcotest.fail "no points");
  (* The unbounded space with <=2 structures per config is strictly larger
     than the paper's 7. *)
  match List.rev result.Cddpd_experiments.Space_bound.points with
  | last :: _ ->
      Alcotest.(check bool) "unbounded space has pair configs" true
        (last.Cddpd_experiments.Space_bound.n_configs > 7)
  | [] -> Alcotest.fail "no points"

let test_ablation () =
  let result = Lazy.force ablation in
  Alcotest.(check bool) "unconstrained entry present" true
    (List.exists (fun e -> e.Ablation.method_label = "unconstrained") result.Ablation.entries);
  (* Exact methods report zero gap at every k. *)
  List.iter
    (fun e ->
      if e.Ablation.method_label = "k-aware" then
        Alcotest.(check (float 1e-6)) "k-aware gap" 0.0 e.Ablation.optimality_gap)
    result.Ablation.entries;
  (* The online baseline is never better than the offline optimum. *)
  let online =
    List.find
      (fun e -> e.Ablation.method_label = "online tuner (reactive)")
      result.Ablation.entries
  in
  Alcotest.(check bool) "online >= offline optimum" true
    (online.Ablation.cost >= result.Ablation.unconstrained_cost)

(* -- cell-jobs width -------------------------------------------------------
   Every experiment must report the same result at every cell-jobs width
   (modulo wall-clock fields, which are masked out below): cells join in
   declaration order and each cell's randomness comes from a
   (seed, index)-determined stream.  Each check reruns the shared
   one-domain result at widths 2 and 4. *)

let check_widths name ~sequential ~mask f =
  let expected = mask (Lazy.force sequential) in
  List.iter
    (fun jobs ->
      if mask (f jobs) <> expected then Alcotest.failf "%s differs at cell_jobs=%d" name jobs)
    [ 2; 4 ]

let test_figure3_cells_bit_identical () =
  let s = Lazy.force session in
  check_widths "figure3" ~sequential:figure3 ~mask:Fun.id (fun jobs ->
      Figure3.run ~cell_jobs:jobs s)

let test_table2_cells_equal () =
  let s = Lazy.force session in
  let schedule = Array.map Design.structures in
  let mask (r : Table2.result) =
    ( r.Table2.rows,
      r.Table2.unconstrained.Solution.cost,
      r.Table2.unconstrained.Solution.changes,
      r.Table2.constrained.Solution.cost,
      r.Table2.constrained.Solution.changes,
      schedule r.Table2.schedule_k2,
      schedule r.Table2.schedule_unconstrained )
  in
  check_widths "table2" ~sequential:table2 ~mask (fun jobs -> Table2.run ~cell_jobs:jobs s)

let test_figure4_cells_costs_equal () =
  let s = Lazy.force session in
  let mask (r : Figure4.result) =
    ( r.Figure4.unconstrained_cost,
      List.map
        (fun p -> (p.Figure4.k, p.Figure4.kaware_cost, p.Figure4.merging_cost))
        r.Figure4.points )
  in
  check_widths "figure4" ~sequential:figure4 ~mask (fun jobs ->
      Figure4.run ~ks:figure4_ks ~repeats:1 ~cell_jobs:jobs s)

let test_ablation_cells_equal () =
  let s = Lazy.force session in
  let mask (r : Ablation.result) =
    ( r.Ablation.unconstrained_cost,
      List.map
        (fun e ->
          ( e.Ablation.method_label,
            e.Ablation.k,
            e.Ablation.cost,
            e.Ablation.changes,
            e.Ablation.optimality_gap ))
        r.Ablation.entries )
  in
  check_widths "ablation" ~sequential:ablation ~mask (fun jobs ->
      Ablation.run ~ks:ablation_ks ~cell_jobs:jobs s)

let test_updates_cells_equal () =
  let s = Lazy.force session in
  check_widths "updates" ~sequential:updates ~mask:Fun.id (fun jobs ->
      Cddpd_experiments.Updates.run ~fractions:updates_fractions ~cell_jobs:jobs s)

let test_space_bound_cells_equal () =
  let s = Lazy.force session in
  check_widths "space" ~sequential:space_bound ~mask:Fun.id (fun jobs ->
      Cddpd_experiments.Space_bound.run ~cell_jobs:jobs s)

(* Worker domains record no metrics, so an instrumented run with no
   forced width stays on the main domain. *)
let test_instrumented_run_on_main_domain () =
  let module Runner = Cddpd_experiments.Runner in
  let module Obs = Cddpd_obs in
  let cells =
    List.init 4 (fun i -> Runner.cell (string_of_int i) (fun _ -> Domain.is_main_domain ()))
  in
  let before = Obs.Snapshot.capture () in
  let on_main = Obs.Registry.with_enabled (fun () -> Runner.run cells) in
  let delta = Obs.Snapshot.diff ~before ~after:(Obs.Snapshot.capture ()) in
  Alcotest.(check (list bool)) "every cell on the main domain" [ true; true; true; true ] on_main;
  Alcotest.(check (option int)) "one domain" (Some 1)
    (Obs.Snapshot.counter_value delta "experiments.cell_jobs_used")

let () =
  Alcotest.run "experiments"
    [
      ( "setup",
        [
          Alcotest.test_case "paper space" `Quick test_setup_paper_space;
          Alcotest.test_case "database" `Quick test_setup_database;
        ] );
      ("table1", [ Alcotest.test_case "mix frequencies" `Quick test_table1 ]);
      ("table2", [ Alcotest.test_case "design shapes" `Quick test_table2_shapes ]);
      ("figure3", [ Alcotest.test_case "relative times" `Slow test_figure3_shapes ]);
      ("figure4", [ Alcotest.test_case "runtime curves" `Slow test_figure4_shapes ]);
      ("ablation", [ Alcotest.test_case "solver comparison" `Quick test_ablation ]);
      ("updates", [ Alcotest.test_case "update-share ablation" `Quick test_updates ]);
      ("views", [ Alcotest.test_case "view scheduling" `Slow test_views ]);
      ("space", [ Alcotest.test_case "SIZE bound sweep" `Quick test_space_bound ]);
      ( "cells",
        [
          Alcotest.test_case "figure3 parallel = sequential (bit-identical)" `Slow
            test_figure3_cells_bit_identical;
          Alcotest.test_case "table2 parallel = sequential" `Quick
            test_table2_cells_equal;
          Alcotest.test_case "figure4 parallel costs = sequential" `Quick
            test_figure4_cells_costs_equal;
          Alcotest.test_case "ablation parallel = sequential" `Quick
            test_ablation_cells_equal;
          Alcotest.test_case "instrumented run stays on the main domain" `Quick
            test_instrumented_run_on_main_domain;
          Alcotest.test_case "updates parallel = sequential" `Quick
            test_updates_cells_equal;
          Alcotest.test_case "space-bound parallel = sequential" `Quick
            test_space_bound_cells_equal;
        ] );
    ]
