module Design = Cddpd_catalog.Design
module Database = Cddpd_engine.Database
module Dml_gen = Cddpd_workload.Dml_gen
module Problem = Cddpd_core.Problem
module Optimizer = Cddpd_core.Optimizer
module Solution = Cddpd_core.Solution
module Text_table = Cddpd_util.Text_table

type point = {
  update_fraction : float;
  constrained_cost : float;
  unconstrained_cost : float;
  constrained_changes : int;
  distinct_indexes : int;
  empty_steps : int;
}

type result = { points : point list }

let measure (session : Session.t) fraction =
  let config = session.Session.config in
  let steps =
    Array.map
      (Dml_gen.blend ~update_fraction:fraction
         ~value_range:config.Setup.value_range ~seed:(config.Setup.seed + 7))
      session.Session.steps_w1
  in
  let problem = Setup.build_problem session.Session.db ~steps in
  let unconstrained = Optimizer.unconstrained problem in
  let constrained =
    match Optimizer.solve problem ~method_name:Solution.Kaware ~k:2 () with
    | Ok s -> s
    | Error (Optimizer.Infeasible | Optimizer.Ranking_gave_up _) ->
        failwith "Updates: solver failed"
  in
  let schedule = Solution.schedule problem constrained in
  let distinct =
    Array.fold_left
      (fun acc design -> if List.exists (Design.equal design) acc then acc else design :: acc)
      [] schedule
  in
  let distinct_indexes =
    List.fold_left
      (fun acc design -> acc + Design.cardinality design)
      0 distinct
  in
  let empty_steps =
    Array.fold_left (fun acc d -> if Design.is_empty d then acc + 1 else acc) 0 schedule
  in
  {
    update_fraction = fraction;
    constrained_cost = constrained.Solution.cost;
    unconstrained_cost = unconstrained.Solution.cost;
    constrained_changes = constrained.Solution.changes;
    distinct_indexes;
    empty_steps;
  }

let run ?(fractions = [ 0.0; 0.1; 0.3; 0.5; 0.8 ]) ?cell_jobs
    (session : Session.t) =
  (* Resolve the shared table statistics on the main domain so each
     cell's problem build reads them without racing the memo. *)
  ignore (Database.table_stats session.Session.db Setup.table_name);
  let cells =
    List.map
      (fun fraction ->
        Runner.cell
          (Printf.sprintf "update-fraction=%.2f" fraction)
          (fun _ctx -> measure session fraction))
      fractions
  in
  { points = Runner.run ?cell_jobs ~seed:session.Session.config.Setup.seed cells }

let print result =
  print_endline "Updates ablation: blending UPDATEs into W1 (k = 2 designs)";
  let table =
    Text_table.create
      [
        ("update fraction", Text_table.Right);
        ("cost k=2", Text_table.Right);
        ("cost unconstrained", Text_table.Right);
        ("overhead of k=2", Text_table.Right);
        ("indexes used", Text_table.Right);
        ("index-free steps", Text_table.Right);
      ]
  in
  List.iter
    (fun p ->
      Text_table.add_row table
        [
          Printf.sprintf "%.0f%%" (p.update_fraction *. 100.);
          Printf.sprintf "%.0f" p.constrained_cost;
          Printf.sprintf "%.0f" p.unconstrained_cost;
          Printf.sprintf "%.1f%%"
            ((p.constrained_cost /. p.unconstrained_cost -. 1.0) *. 100.);
          string_of_int p.distinct_indexes;
          string_of_int p.empty_steps;
        ])
    result.points;
  Text_table.print table
