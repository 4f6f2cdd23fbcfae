module Database = Cddpd_engine.Database
module Cost_cache = Cddpd_engine.Cost_cache

type stats = {
  reoptimizations : int;
  warm_start_bounds : int;
  reuse : Problem.Reuse.tallies;
  cache : Cost_cache.stats;
}

type t = {
  db : Database.t;
  reuse : Problem.Reuse.t option;
  mutable reoptimizations : int;
  mutable warm_start_bounds : int;
}

let create ?(reuse = true) db =
  {
    db;
    reuse = (if reuse then Some (Problem.Reuse.create ()) else None);
    reoptimizations = 0;
    warm_start_bounds = 0;
  }

let build_problem ?statement_keys t request =
  t.reoptimizations <- t.reoptimizations + 1;
  Advisor.build_problem ?reuse:t.reuse ?statement_keys t.db request

(* The incumbent's hold-at-C0 schedule: stay at the initial configuration
   for every step.  Zero changes, so it is feasible for every k >= 0, and
   its cost — computed through the instance's own graph, so floats
   associate exactly as the solvers' accumulators do — is a valid
   branch-and-bound upper bound on the constrained optimum.  (A measured
   I/O tally would NOT be: it can undercut the what-if optimum and prune
   the true solution away.) *)
let hold_bound problem =
  let hold = Array.make (Problem.n_steps problem) problem.Problem.initial in
  Problem.path_cost problem hold

let solve ?k ?jobs ?max_paths ?max_queue t problem ~method_name =
  t.warm_start_bounds <- t.warm_start_bounds + 1;
  Optimizer.solve problem ~method_name ?k ?jobs ?max_paths ?max_queue
    ~upper_bound:(hold_bound problem) ()

(* Without reuse, a fresh session's zero tallies. *)
let stats t =
  let reuse = match t.reuse with Some r -> r | None -> Problem.Reuse.create () in
  {
    reoptimizations = t.reoptimizations;
    warm_start_bounds = t.warm_start_bounds;
    reuse = Problem.Reuse.tallies reuse;
    cache = Cost_cache.stats (Problem.Reuse.memo reuse);
  }
