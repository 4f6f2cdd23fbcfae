module Solution = Cddpd_core.Solution
module Optimizer = Cddpd_core.Optimizer
module Problem = Cddpd_core.Problem
module Online_tuner = Cddpd_core.Online_tuner
module Text_table = Cddpd_util.Text_table

type entry = {
  method_label : string;
  k : int option;
  cost : float;
  changes : int;
  elapsed : float;
  optimality_gap : float;
}

type result = { entries : entry list; unconstrained_cost : float }

let constrained_methods =
  [ Solution.Kaware; Solution.Greedy_seq; Solution.Merging; Solution.Ranking; Solution.Hybrid ]

let default_ks = [ 0; 2; 6; 10 ]

(* One constrained-method measurement, with the optimality gap left as a
   placeholder: it needs the optimal cost at this k, which its own cell
   computes, and is patched in when the cells join. *)
let method_measurement problem ~k method_name =
  match Optimizer.solve problem ~method_name ~k ~max_paths:200_000 () with
  | Ok s ->
      {
        method_label = Solution.method_to_string method_name;
        k = Some k;
        cost = s.Solution.cost;
        changes = s.Solution.changes;
        elapsed = s.Solution.elapsed;
        optimality_gap = infinity;
      }
  | Error Optimizer.Infeasible ->
      {
        method_label = Solution.method_to_string method_name;
        k = Some k;
        cost = infinity;
        changes = 0;
        elapsed = 0.0;
        optimality_gap = infinity;
      }
  | Error (Optimizer.Ranking_gave_up g) ->
      {
        method_label =
          Printf.sprintf "%s (gave up after %d paths, %s)"
            (Solution.method_to_string method_name)
            g.Cddpd_graph.Ranking.examined
            (Cddpd_graph.Ranking.reason_to_string g.Cddpd_graph.Ranking.reason);
        k = Some k;
        cost = infinity;
        changes = 0;
        elapsed = 0.0;
        optimality_gap = infinity;
      }

let patch_gap ~optimal_cost entry =
  if Float.equal entry.cost infinity then entry
  else
    { entry with optimality_gap = (entry.cost -. optimal_cost) /. optimal_cost }

let optimal_cost_at problem k =
  match Optimizer.solve problem ~method_name:Solution.Kaware ~k () with
  | Ok s -> s.Solution.cost
  | Error (Optimizer.Infeasible | Optimizer.Ranking_gave_up _) -> infinity

let unconstrained_entry (unconstrained : Solution.t) =
  {
    method_label = "unconstrained";
    k = None;
    cost = unconstrained.Solution.cost;
    changes = unconstrained.Solution.changes;
    elapsed = unconstrained.Solution.elapsed;
    optimality_gap = 0.0;
  }

let online_entry problem ~unconstrained_cost online_path =
  let cost = Problem.path_cost problem online_path in
  {
    method_label = "online tuner (reactive)";
    k = None;
    cost;
    changes = Problem.path_changes problem online_path;
    elapsed = 0.0;
    optimality_gap = (cost -. unconstrained_cost) /. unconstrained_cost;
  }

(* Cell outputs are heterogeneous (a solution, an optimal cost, a method
   measurement, a tuner path), so cells return a small sum type and the
   join pass reassembles the entries: the unconstrained baseline, each k's
   methods, then the online tuner. *)
type cell_out =
  | Out_unconstrained of Solution.t
  | Out_optimal_cost of float
  | Out_method of entry
  | Out_online of int array

let run ?(ks = default_ks) ?cell_jobs (session : Session.t) =
  let problem = session.Session.problem_w1 in
  (* Force the memoized sequence graph on the main domain so solver cells
     share it read-only (Lazy.force is not safe to race). *)
  ignore (Problem.to_graph problem);
  let cells =
    Runner.cell "unconstrained" (fun _ctx ->
        Out_unconstrained (Optimizer.unconstrained problem))
    :: List.concat_map
         (fun k ->
           Runner.cell
             (Printf.sprintf "optimal/k=%d" k)
             (fun _ctx -> Out_optimal_cost (optimal_cost_at problem k))
           :: List.map
                (fun method_name ->
                  Runner.cell
                    (Printf.sprintf "%s/k=%d"
                       (Solution.method_to_string method_name)
                       k)
                    (fun _ctx -> Out_method (method_measurement problem ~k method_name)))
                constrained_methods)
         ks
    @ [
        Runner.cell "online-tuner" (fun _ctx -> Out_online (Online_tuner.run problem));
      ]
  in
  let outs = Runner.run ?cell_jobs ~seed:session.Session.config.Setup.seed cells in
  let unconstrained, rest =
    match outs with
    | Out_unconstrained s :: rest -> (s, rest)
    | _ -> failwith "Ablation: unexpected cell output"
  in
  let rec group rest =
    match rest with
    | [ Out_online path ] ->
        [ online_entry problem ~unconstrained_cost:unconstrained.Solution.cost path ]
    | Out_optimal_cost optimal_cost :: rest ->
        let n = List.length constrained_methods in
        let measured = List.filteri (fun i _ -> i < n) rest in
        let entries =
          List.map
            (function
              | Out_method e -> patch_gap ~optimal_cost e
              | _ -> failwith "Ablation: unexpected cell output")
            measured
        in
        entries @ group (List.filteri (fun i _ -> i >= n) rest)
    | _ -> failwith "Ablation: unexpected cell output"
  in
  {
    entries = unconstrained_entry unconstrained :: group rest;
    unconstrained_cost = unconstrained.Solution.cost;
  }

let print result =
  print_endline "Ablation: all solvers on the W1 instance";
  let table =
    Text_table.create
      [
        ("method", Text_table.Left);
        ("k", Text_table.Right);
        ("cost", Text_table.Right);
        ("changes", Text_table.Right);
        ("gap vs optimal", Text_table.Right);
        ("time (ms)", Text_table.Right);
      ]
  in
  List.iter
    (fun e ->
      Text_table.add_row table
        [
          e.method_label;
          (match e.k with None -> "-" | Some k -> string_of_int k);
          (if Float.equal e.cost infinity then "infeasible" else Printf.sprintf "%.0f" e.cost);
          string_of_int e.changes;
          (if Float.equal e.optimality_gap infinity then "-"
           else Printf.sprintf "%+.2f%%" (e.optimality_gap *. 100.));
          Printf.sprintf "%.3f" (e.elapsed *. 1e3);
        ])
    result.entries;
  Text_table.print table
