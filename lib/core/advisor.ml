module Database = Cddpd_engine.Database
module Cost_model = Cddpd_engine.Cost_model
module Design = Cddpd_catalog.Design

type request = {
  steps : Cddpd_sql.Ast.statement array array;
  table : string;
  candidates : Cddpd_catalog.Structure.t list option;
  composite_pairs : int;
  max_candidates : int option;
  composite_width : int option;
  prune : int option;
  max_configs : int option;
  max_structures_per_config : int option;
  space_bound_bytes : int option;
  initial : Design.t;
  count_initial_change : bool;
  k : int option;
  method_name : Solution.method_name;
  jobs : int option;
  max_paths : int option;
  max_queue : int option;
}

let default_request ~steps ~table =
  {
    steps;
    table;
    candidates = None;
    composite_pairs = 2;
    max_candidates = None;
    composite_width = None;
    prune = None;
    max_configs = None;
    max_structures_per_config = Some 1;
    space_bound_bytes = None;
    initial = Design.empty;
    count_initial_change = false;
    k = None;
    method_name = Solution.Unconstrained;
    jobs = None;
    max_paths = None;
    max_queue = None;
  }

type recommendation = {
  problem : Problem.t;
  solution : Solution.t;
  schedule : Design.t array;
}

let build_space db request =
  let schema =
    match Database.schema db request.table with
    | Some schema -> schema
    | None -> invalid_arg (Printf.sprintf "Advisor: unknown table %s" request.table)
  in
  let scaled_generation =
    request.composite_width <> None || request.max_candidates <> None
  in
  let candidates =
    match request.candidates with
    | Some candidates -> candidates
    | None ->
        let flat = Array.concat (Array.to_list request.steps) in
        if scaled_generation then
          Candidates.generate schema
            ?max_width:request.composite_width
            ?max_candidates:request.max_candidates flat
        else
          Candidates.structures_from_statements schema
            ~composite_pairs:request.composite_pairs flat
  in
  let params = Database.params db in
  let stats_of table = Database.table_stats db table in
  match request.prune with
  | None ->
      let size_of structure =
        Cost_model.structure_size_bytes params
          ~stats:(stats_of (Cddpd_catalog.Structure.table structure))
          structure
      in
      Config_space.enumerate ~candidates
        ?max_structures:request.max_structures_per_config
        ?space_bound_bytes:request.space_bound_bytes ~size_of ()
  | Some budget ->
      let scored = Pruner.score ~params ~stats_of ~steps:request.steps candidates in
      let survivors, _pruned = Pruner.dominance_prune ~max_candidates:budget scored in
      let max_structures =
        match request.max_structures_per_config with
        | Some m -> m
        | None -> max 1 (List.length survivors)
      in
      Pruner.space ~max_structures ?space_bound_bytes:request.space_bound_bytes
        ?max_configs:request.max_configs survivors

let build_problem ?reuse ?statement_keys db request =
  let space = build_space db request in
  Problem.build ~params:(Database.params db)
    ~stats_of:(fun table -> Database.table_stats db table)
    ~steps:request.steps ~space ~initial:request.initial
    ~count_initial_change:request.count_initial_change ?jobs:request.jobs ?reuse
    ?statement_keys ()

let recommend db request =
  let problem = build_problem db request in
  match
    Optimizer.solve problem ~method_name:request.method_name ?k:request.k
      ?jobs:request.jobs ?max_paths:request.max_paths ?max_queue:request.max_queue
      ()
  with
  | Ok solution ->
      Ok { problem; solution; schedule = Solution.schedule problem solution }
  | Error e -> Error e

let recommend_exn db request =
  match recommend db request with
  | Ok recommendation -> recommendation
  | Error Optimizer.Infeasible -> failwith "Advisor: infeasible change budget"
  | Error (Optimizer.Ranking_gave_up g) ->
      failwith
        (Printf.sprintf "Advisor: ranking gave up after %d paths (%s)"
           g.Cddpd_graph.Ranking.examined
           (Cddpd_graph.Ranking.reason_to_string g.Cddpd_graph.Ranking.reason))
