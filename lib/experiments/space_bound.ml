module Design = Cddpd_catalog.Design
module Structure = Cddpd_catalog.Structure
module Index_def = Cddpd_catalog.Index_def
module Database = Cddpd_engine.Database
module Cost_model = Cddpd_engine.Cost_model
module Config_space = Cddpd_core.Config_space
module Problem = Cddpd_core.Problem
module Optimizer = Cddpd_core.Optimizer
module Solution = Cddpd_core.Solution
module Text_table = Cddpd_util.Text_table

type point = {
  bound_bytes : int option;
  n_configs : int;
  cost : float;
  changes : int;
  largest_design : string;
}

type result = { points : point list }

let size_of db structure =
  Cost_model.structure_size_bytes (Database.params db)
    ~stats:(Database.table_stats db (Structure.table structure))
    structure

let default_bounds (session : Session.t) =
  let db = session.Session.db in
  let size columns =
    size_of db (Structure.index (Index_def.make ~table:Setup.table_name ~columns))
  in
  let single = size [ "a" ] in
  let composite = size [ "a"; "b" ] in
  [ Some 1; Some single; Some composite; Some (2 * composite); None ]

let measure (session : Session.t) bound_bytes =
  let db = session.Session.db in
  let candidates = List.map Structure.index Setup.paper_candidates in
  let space =
    Config_space.enumerate ~candidates ~max_structures:2 ?space_bound_bytes:bound_bytes
      ~size_of:(size_of db) ()
  in
  let problem =
    Problem.build ~params:(Database.params db)
      ~stats_of:(fun table -> Database.table_stats db table)
      ~steps:session.Session.steps_w1 ~space ~initial:Design.empty ()
  in
  let solution =
    match Optimizer.solve problem ~method_name:Solution.Kaware ~k:2 () with
    | Ok s -> s
    | Error (Optimizer.Infeasible | Optimizer.Ranking_gave_up _) ->
        failwith "Space_bound: solver failed"
  in
  let largest_design =
    Array.fold_left
      (fun acc design ->
        match acc with
        | Some best when Design.cardinality best >= Design.cardinality design -> acc
        | _ -> Some design)
      None
      (Solution.schedule problem solution)
    |> Option.map Design.name
    |> Option.value ~default:"{}"
  in
  {
    bound_bytes;
    n_configs = Config_space.size space;
    cost = solution.Solution.cost;
    changes = solution.Solution.changes;
    largest_design;
  }

let bound_label = function
  | None -> "unbounded"
  | Some b -> Printf.sprintf "b=%d" b

let run ?bounds ?cell_jobs (session : Session.t) =
  (* default_bounds resolves the shared table statistics on the main
     domain, making [Database.table_stats] a pure read for the cells
     (each cell builds its own problem, but against the session's db
     stats). *)
  let bounds = match bounds with Some b -> b | None -> default_bounds session in
  ignore (Database.table_stats session.Session.db Setup.table_name);
  let cells =
    List.map
      (fun bound ->
        Runner.cell (bound_label bound) (fun _ctx -> measure session bound))
      bounds
  in
  { points = Runner.run ?cell_jobs ~seed:session.Session.config.Setup.seed cells }

let print result =
  print_endline
    "Space-bound sweep: optimal k=2 cost under SIZE(C) <= b (<=2 structures/config)";
  let table =
    Text_table.create
      [
        ("bound b", Text_table.Right);
        ("configs that fit", Text_table.Right);
        ("optimal k=2 cost", Text_table.Right);
        ("changes", Text_table.Right);
        ("largest design used", Text_table.Left);
      ]
  in
  List.iter
    (fun p ->
      Text_table.add_row table
        [
          (match p.bound_bytes with
          | None -> "unbounded"
          | Some b when b >= 1024 * 1024 -> Printf.sprintf "%d MiB" (b / (1024 * 1024))
          | Some b when b >= 1024 -> Printf.sprintf "%d KiB" (b / 1024)
          | Some b -> Printf.sprintf "%d B" b);
          string_of_int p.n_configs;
          Printf.sprintf "%.0f" p.cost;
          string_of_int p.changes;
          p.largest_design;
        ])
    result.points;
  Text_table.print table
