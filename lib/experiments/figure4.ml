module Solution = Cddpd_core.Solution
module Optimizer = Cddpd_core.Optimizer
module Problem = Cddpd_core.Problem
module Text_table = Cddpd_util.Text_table

type point = {
  k : int;
  kaware_relative : float;
  merging_relative : float;
  kaware_seconds : float;
  merging_seconds : float;
  kaware_cost : float;
  merging_cost : float;
}

type result = {
  points : point list;
  unconstrained_seconds : float;
  unconstrained_cost : float;
  repeats : int;
}

(* Solver runtimes at this instance size are microseconds; time a batch and
   take the per-solve mean, then the median over several batches. *)
let time_batched ~repeats f =
  let batch = 16 in
  let samples =
    Array.init repeats (fun _ ->
        (* cddpd-lint: allow determinism — measuring wall-clock runtime is this experiment's purpose *)
        let start = Unix.gettimeofday () in
        for _ = 1 to batch do
          ignore (f ())
        done;
        (* cddpd-lint: allow determinism — measuring wall-clock runtime is this experiment's purpose *)
        (Unix.gettimeofday () -. start) /. float_of_int batch)
  in
  Cddpd_util.Stats.percentile samples 50.0

let default_ks = [ 2; 4; 6; 8; 10; 12; 14; 16; 18 ]

let cost_of = function
  | Ok s -> s.Solution.cost
  | Error (Optimizer.Infeasible | Optimizer.Ranking_gave_up _) -> infinity

(* One cell's measurement: the median solve time and the (deterministic)
   schedule cost of one solver at one k. *)
let measure ~repeats problem method_name k =
  let solve () = Optimizer.solve problem ~method_name ?k () in
  let seconds = time_batched ~repeats solve in
  (seconds, cost_of (solve ()))

let run ?(ks = default_ks) ?(repeats = 32) ?cell_jobs (session : Session.t) =
  let problem = session.Session.problem_w1 in
  (* Force the memoized sequence graph on the main domain so solver cells
     share it read-only (Lazy.force is not safe to race). *)
  ignore (Problem.to_graph problem);
  let cell label method_name k =
    Runner.cell label (fun _ctx -> measure ~repeats problem method_name k)
  in
  let cells =
    cell "unconstrained" Solution.Unconstrained None
    :: List.concat_map
         (fun k ->
           [
             cell (Printf.sprintf "kaware/k=%d" k) Solution.Kaware (Some k);
             cell (Printf.sprintf "merging/k=%d" k) Solution.Merging (Some k);
           ])
         ks
  in
  match Runner.run ?cell_jobs ~seed:session.Session.config.Setup.seed cells with
  | (unconstrained_seconds, unconstrained_cost) :: measured ->
      let rec points ks measured =
        match (ks, measured) with
        | [], [] -> []
        | k :: ks, (kaware_seconds, kaware_cost) :: (merging_seconds, merging_cost) :: measured
          ->
            {
              k;
              kaware_seconds;
              merging_seconds;
              kaware_cost;
              merging_cost;
              kaware_relative = kaware_seconds /. unconstrained_seconds;
              merging_relative = merging_seconds /. unconstrained_seconds;
            }
            :: points ks measured
        | _ -> failwith "Figure4: unexpected cell count"
      in
      { points = points ks measured; unconstrained_seconds; unconstrained_cost; repeats }
  | [] -> failwith "Figure4: unexpected cell count"

let print result =
  print_endline
    "Figure 4: Constrained-optimizer runtime relative to the unconstrained optimizer";
  let table =
    Text_table.create
      [
        ("k", Text_table.Right);
        ("k-aware graph", Text_table.Right);
        ("merging", Text_table.Right);
        ("k-aware (us)", Text_table.Right);
        ("merging (us)", Text_table.Right);
        ("merging cost overhead", Text_table.Right);
      ]
  in
  List.iter
    (fun p ->
      Text_table.add_row table
        [
          string_of_int p.k;
          Printf.sprintf "%.0f%%" (p.kaware_relative *. 100.);
          Printf.sprintf "%.0f%%" (p.merging_relative *. 100.);
          Printf.sprintf "%.1f" (p.kaware_seconds *. 1e6);
          Printf.sprintf "%.1f" (p.merging_seconds *. 1e6);
          (if Float.equal p.kaware_cost infinity || Float.equal p.merging_cost infinity then "-"
           else
             Printf.sprintf "%+.2f%%" (((p.merging_cost /. p.kaware_cost) -. 1.0) *. 100.));
        ])
    result.points;
  Text_table.print table;
  Printf.printf "unconstrained solve: %.1f us (median of %d batches)\n"
    (result.unconstrained_seconds *. 1e6)
    result.repeats
