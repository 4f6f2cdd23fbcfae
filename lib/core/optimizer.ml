module Staged_dag = Cddpd_graph.Staged_dag
module Kaware = Cddpd_graph.Kaware
module Ranking = Cddpd_graph.Ranking
module Timer = Cddpd_util.Timer
module Obs = Cddpd_obs

type error = Infeasible | Ranking_gave_up of Ranking.gave_up

let m_solves = Obs.Registry.counter "optimizer.solves"
let h_solve_s = Obs.Registry.histogram "optimizer.solve_s"
let m_warm_bound_used = Obs.Registry.counter "reopt.warm_start_bound_used"

let finish problem method_name elapsed path =
  {
    Solution.path;
    cost = Problem.path_cost problem path;
    changes = Problem.path_changes problem path;
    method_name;
    elapsed;
  }

let require_k method_name k =
  match k with
  | Some k when k >= 0 -> k
  | Some _ -> invalid_arg "Optimizer.solve: negative k"
  | None ->
      invalid_arg
        (Printf.sprintf "Optimizer.solve: method %s requires k"
           (Solution.method_to_string method_name))

(* The hybrid rule (Section 6.4's conclusion): with [l] changes in the
   unconstrained optimum, merge when [k > l / 2] (few merge steps),
   solve the k-aware graph otherwise. *)
let hybrid_uses_merging ~l ~k = k > l / 2

(* Branch-and-bound seed for the exact solvers: the merging heuristic
   refined from the unconstrained optimum is always a feasible
   ≤ k-changes schedule, so its cost upper-bounds the constrained
   optimum.  Costed through the graph so the bound and the solvers'
   accumulators associate floats identically. *)
let merging_upper_bound problem graph ~k unconstrained_path =
  Staged_dag.path_cost graph (Merging.refine problem ~k unconstrained_path)

let solve problem ~method_name ?k ?(max_paths = 1_000_000) ?max_queue
    ?upper_bound:warm_bound () =
  let graph = Problem.to_graph problem in
  let initial = Problem.initial_for_counting problem in
  (* Warm-started branch-and-bound: a caller-supplied feasible bound (the
     incumbent's hold-at-C0 cost, in serve) tightens the merging seed
     when it is smaller.  Both bounds are costs of feasible ≤ k-changes
     schedules, so the min is still a valid upper bound on the
     constrained optimum and pruning stays exact — the returned schedule
     cannot change. *)
  let seeded_bound problem graph ~k unconstrained_path =
    let merging = merging_upper_bound problem graph ~k unconstrained_path in
    match warm_bound with
    | Some warm when warm < merging ->
        Obs.Counter.incr m_warm_bound_used;
        warm
    | _ -> merging
  in
  let run () =
    match method_name with
    | Solution.Unconstrained ->
        let _, path = Staged_dag.shortest_path graph in
        Ok path
    | Solution.Kaware -> (
        let k = require_k method_name k in
        let _, unconstrained_path = Staged_dag.shortest_path graph in
        let upper_bound = seeded_bound problem graph ~k unconstrained_path in
        match Kaware.solve ~upper_bound graph ~k ~initial with
        | Some (_, path) -> Ok path
        | None -> Error Infeasible)
    | Solution.Greedy_seq -> (
        let k = require_k method_name k in
        match Greedy_seq.solve problem ~k with
        | Some (_, path) -> Ok path
        | None -> Error Infeasible)
    | Solution.Merging ->
        let k = require_k method_name k in
        let _, unconstrained_path = Staged_dag.shortest_path graph in
        Ok (Merging.refine problem ~k unconstrained_path)
    | Solution.Ranking -> (
        let k = require_k method_name k in
        let _, unconstrained_path = Staged_dag.shortest_path graph in
        let upper_bound = seeded_bound problem graph ~k unconstrained_path in
        match
          Ranking.solve_constrained graph ~k ~initial ~upper_bound ~max_paths
            ?max_queue ()
        with
        | `Found (_, path, _) -> Ok path
        | `Gave_up g -> Error (Ranking_gave_up g))
    | Solution.Hybrid -> (
        let k = require_k method_name k in
        let _, unconstrained_path = Staged_dag.shortest_path graph in
        let l = Staged_dag.path_changes graph ~initial unconstrained_path in
        if l <= k then Ok unconstrained_path
        else if hybrid_uses_merging ~l ~k then
          Ok (Merging.refine problem ~k unconstrained_path)
        else
          let upper_bound = seeded_bound problem graph ~k unconstrained_path in
          match Kaware.solve ~upper_bound graph ~k ~initial with
          | Some (_, path) -> Ok path
          | None -> Error Infeasible)
  in
  let result, elapsed =
    Obs.Span.with_span
      ("optimizer." ^ Solution.method_to_string method_name)
      (fun () -> Timer.time run)
  in
  Obs.Counter.incr m_solves;
  Obs.Histogram.observe h_solve_s elapsed;
  Result.map (finish problem method_name elapsed) result

let unconstrained problem =
  match solve problem ~method_name:Solution.Unconstrained () with
  | Ok solution -> solution
  | Error (Infeasible | Ranking_gave_up _) ->
      assert false (* the unconstrained problem always has a solution *)
