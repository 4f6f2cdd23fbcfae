(* Graph algorithm tests.  The exact solvers are cross-validated against
   brute-force enumeration of every path on random small instances. *)

module Staged_dag = Cddpd_graph.Staged_dag
module Kaware = Cddpd_graph.Kaware
module Ranking = Cddpd_graph.Ranking

(* A concrete random instance: explicit cost matrices.  Edge costs are
   the same at every stage boundary, as in every sequence graph. *)
type instance = {
  n_stages : int;
  n_nodes : int;
  exec : float array array; (* stage x node *)
  trans : float array array; (* src x dst *)
  source : float array;
}

let graph_of_instance inst =
  Staged_dag.of_matrices ~exec:inst.exec ~trans:inst.trans ~source:inst.source ()

let instance_gen =
  QCheck.Gen.(
    let cost = map (fun i -> float_of_int i) (int_bound 50) in
    int_range 1 5 >>= fun n_stages ->
    int_range 1 4 >>= fun n_nodes ->
    let matrix rows cols = array_size (return rows) (array_size (return cols) cost) in
    matrix n_stages n_nodes >>= fun exec ->
    matrix n_nodes n_nodes >>= fun trans ->
    array_size (return n_nodes) cost >>= fun source ->
    return { n_stages; n_nodes; exec; trans; source })

let print_instance inst =
  Printf.sprintf "stages=%d nodes=%d" inst.n_stages inst.n_nodes

let instance_arbitrary = QCheck.make ~print:print_instance instance_gen

(* Enumerate all n_nodes^n_stages paths. *)
let all_paths inst =
  let rec go stage acc =
    if stage = inst.n_stages then [ List.rev acc ]
    else
      List.concat_map
        (fun j -> go (stage + 1) (j :: acc))
        (List.init inst.n_nodes (fun j -> j))
  in
  List.map Array.of_list (go 0 [])

let changes ~initial path =
  let c = ref 0 in
  (match initial with Some j when path.(0) <> j -> incr c | _ -> ());
  for s = 1 to Array.length path - 1 do
    if path.(s) <> path.(s - 1) then incr c
  done;
  !c

(* -- unit tests ----------------------------------------------------------------- *)

let tiny_graph () =
  (* 2 stages, 2 nodes.  Node costs: stage0 = [10; 1], stage1 = [10; 1].
     Edge cost 5 when switching, 0 otherwise.  Source edges free. *)
  Staged_dag.of_matrices
    ~exec:[| [| 10.0; 1.0 |]; [| 10.0; 1.0 |] |]
    ~trans:[| [| 0.0; 5.0 |]; [| 5.0; 0.0 |] |]
    ()

let test_shortest_path_tiny () =
  let cost, path = Staged_dag.shortest_path (tiny_graph ()) in
  Alcotest.(check (float 1e-9)) "cost" 2.0 cost;
  Alcotest.(check (array int)) "path" [| 1; 1 |] path

let test_path_cost_agrees () =
  let g = tiny_graph () in
  Alcotest.(check (float 1e-9)) "path cost" 16.0 (Staged_dag.path_cost g [| 0; 1 |]);
  Alcotest.(check (float 1e-9)) "stay" 20.0 (Staged_dag.path_cost g [| 0; 0 |])

let test_path_changes () =
  let g = tiny_graph () in
  Alcotest.(check int) "no changes" 0 (Staged_dag.path_changes g ~initial:None [| 1; 1 |]);
  Alcotest.(check int) "one change" 1 (Staged_dag.path_changes g ~initial:None [| 0; 1 |]);
  Alcotest.(check int) "initial counts" 1
    (Staged_dag.path_changes g ~initial:(Some 0) [| 1; 1 |]);
  Alcotest.(check int) "initial matches" 0
    (Staged_dag.path_changes g ~initial:(Some 1) [| 1; 1 |])

let test_kaware_k0_stays () =
  (* With k=0 and an initial node, the only feasible path stays put. *)
  let g = tiny_graph () in
  match Kaware.solve g ~k:0 ~initial:(Some 0) with
  | Some (cost, path) ->
      Alcotest.(check (array int)) "stays on 0" [| 0; 0 |] path;
      Alcotest.(check (float 1e-9)) "cost" 20.0 cost
  | None -> Alcotest.fail "expected a solution"

let test_kaware_negative_k () =
  Alcotest.(check bool) "k<0 infeasible" true (Kaware.solve (tiny_graph ()) ~k:(-1) ~initial:None = None)

let test_kaware_large_k_equals_unconstrained () =
  let g = tiny_graph () in
  let unconstrained_cost, _ = Staged_dag.shortest_path g in
  match Kaware.solve g ~k:10 ~initial:(Some 0) with
  | Some (cost, _) -> Alcotest.(check (float 1e-9)) "equal" unconstrained_cost cost
  | None -> Alcotest.fail "expected a solution"

let test_ranking_first_is_shortest () =
  let g = tiny_graph () in
  let best_cost, best_path = Staged_dag.shortest_path g in
  match Ranking.enumerate g () with
  | Seq.Cons ((cost, path), _) ->
      Alcotest.(check (float 1e-9)) "same cost" best_cost cost;
      Alcotest.(check (array int)) "same path" best_path path
  | Seq.Nil -> Alcotest.fail "no paths"

let test_ranking_enumerates_all () =
  let g = tiny_graph () in
  let paths = List.of_seq (Ranking.enumerate g) in
  Alcotest.(check int) "2^2 paths" 4 (List.length paths)

let test_ranking_enumerate_persistent () =
  (* The search behind [enumerate] is mutable; the sequence must still
     replay the same paths on a second traversal. *)
  let paths = Ranking.enumerate (tiny_graph ()) in
  let first = List.of_seq paths in
  Alcotest.(check bool) "second traversal equal" true (first = List.of_seq paths)

let test_ranking_solve_constrained () =
  let g = tiny_graph () in
  match Ranking.solve_constrained g ~k:0 ~initial:(Some 0) () with
  | `Found (cost, path, rank) ->
      Alcotest.(check (array int)) "stays" [| 0; 0 |] path;
      Alcotest.(check (float 1e-9)) "cost" 20.0 cost;
      Alcotest.(check bool) "not rank 1" true (rank > 1)
  | `Gave_up _ -> Alcotest.fail "should find the k=0 path"

let test_ranking_gives_up () =
  match Ranking.solve_constrained (tiny_graph ()) ~k:0 ~initial:(Some 0) ~max_paths:1 () with
  | `Gave_up { Ranking.examined = 1; reason = Ranking.Path_budget; _ } -> ()
  | `Gave_up g ->
      Alcotest.failf "gave up after %d (%s)" g.Ranking.examined
        (Ranking.reason_to_string g.Ranking.reason)
  | `Found _ -> Alcotest.fail "should exhaust the path budget"

let test_ranking_queue_budget () =
  match
    Ranking.solve_constrained (tiny_graph ()) ~k:0 ~initial:(Some 0) ~max_queue:1 ()
  with
  | `Gave_up { Ranking.reason = Ranking.Queue_budget; queue_peak; _ } ->
      Alcotest.(check bool) "peak within budget" true (queue_peak <= 1)
  | `Gave_up g ->
      Alcotest.failf "wrong reason: %s" (Ranking.reason_to_string g.Ranking.reason)
  | `Found _ -> Alcotest.fail "should exhaust the queue budget"

let test_ranking_space_exhausted () =
  (* Negative k: no path is feasible, so the search ranks all 2^2 paths
     and reports the space as exhausted (not a budget hit). *)
  match Ranking.solve_constrained (tiny_graph ()) ~k:(-1) ~initial:None () with
  | `Gave_up { Ranking.examined = 4; reason = Ranking.Space_exhausted; _ } -> ()
  | `Gave_up g ->
      Alcotest.failf "gave up after %d (%s)" g.Ranking.examined
        (Ranking.reason_to_string g.Ranking.reason)
  | `Found _ -> Alcotest.fail "no path should be feasible"

let test_of_matrices_invalid () =
  let check_rejected name f =
    Alcotest.(check bool) name true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  check_rejected "empty exec" (fun () ->
      Staged_dag.of_matrices ~exec:[||] ~trans:[| [| 0.0 |] |] ());
  check_rejected "ragged exec" (fun () ->
      Staged_dag.of_matrices
        ~exec:[| [| 1.0; 2.0 |]; [| 1.0 |] |]
        ~trans:[| [| 0.0; 0.0 |]; [| 0.0; 0.0 |] |]
        ());
  check_rejected "trans dimension mismatch" (fun () ->
      Staged_dag.of_matrices ~exec:[| [| 1.0; 2.0 |] |] ~trans:[| [| 0.0 |] |] ())

(* -- properties ------------------------------------------------------------------- *)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let shortest_path_matches_bruteforce =
  QCheck.Test.make ~name:"shortest_path = brute force" ~count:200 instance_arbitrary
    (fun inst ->
      let g = graph_of_instance inst in
      let cost, path = Staged_dag.shortest_path g in
      let best =
        List.fold_left
          (fun acc p -> Float.min acc (Staged_dag.path_cost g p))
          infinity (all_paths inst)
      in
      Float.abs (cost -. best) < 1e-6
      && Float.abs (Staged_dag.path_cost g path -. cost) < 1e-6)

let kaware_matches_bruteforce =
  QCheck.Test.make ~name:"kaware = constrained brute force" ~count:200
    (QCheck.pair instance_arbitrary (QCheck.int_bound 4))
    (fun (inst, k) ->
      let g = graph_of_instance inst in
      let initial = Some 0 in
      let feasible =
        List.filter (fun p -> changes ~initial p <= k) (all_paths inst)
      in
      let best =
        List.fold_left
          (fun acc p -> Float.min acc (Staged_dag.path_cost g p))
          infinity feasible
      in
      match Kaware.solve g ~k ~initial with
      | Some (cost, path) ->
          Float.abs (cost -. best) < 1e-6
          && changes ~initial path <= k
          && Float.abs (Staged_dag.path_cost g path -. cost) < 1e-6
      | None -> feasible = [])

let kaware_monotone_in_k =
  QCheck.Test.make ~name:"kaware cost nonincreasing in k" ~count:100 instance_arbitrary
    (fun inst ->
      let g = graph_of_instance inst in
      let costs =
        List.filter_map
          (fun k -> Option.map fst (Kaware.solve g ~k ~initial:(Some 0)))
          [ 0; 1; 2; 3; 4 ]
      in
      let rec nonincreasing xs =
        match xs with
        | a :: b :: rest -> a +. 1e-9 >= b && nonincreasing (b :: rest)
        | [ _ ] | [] -> true
      in
      nonincreasing costs)

let ranking_nondecreasing =
  QCheck.Test.make ~name:"ranking emits nondecreasing costs" ~count:100 instance_arbitrary
    (fun inst ->
      let g = graph_of_instance inst in
      let costs = List.of_seq (Seq.map fst (Ranking.enumerate g)) in
      let rec nondecreasing xs =
        match xs with
        | a :: b :: rest -> a <= b +. 1e-9 && nondecreasing (b :: rest)
        | [ _ ] | [] -> true
      in
      nondecreasing costs)

let ranking_complete =
  QCheck.Test.make ~name:"ranking enumerates every path exactly once" ~count:100
    instance_arbitrary (fun inst ->
      let g = graph_of_instance inst in
      let emitted = List.of_seq (Seq.map snd (Ranking.enumerate g)) in
      let expected = all_paths inst in
      List.length emitted = List.length expected
      && List.sort compare emitted = List.sort compare expected)

let cost_to_go_consistent =
  QCheck.Test.make ~name:"cost_to_go agrees with shortest_path" ~count:200
    instance_arbitrary (fun inst ->
      let g = graph_of_instance inst in
      let n = inst.n_nodes in
      let h = Staged_dag.cost_to_go g in
      (* Completing from the source layer: min over entry nodes of
         source + node + h must reproduce the unconstrained optimum. *)
      let best = ref infinity in
      for j = 0 to n - 1 do
        let total = inst.source.(j) +. inst.exec.(0).(j) +. h.(j) in
        if total < !best then best := total
      done;
      let cost, _ = Staged_dag.shortest_path g in
      Float.abs (!best -. cost) < 1e-6)

let kaware_parallel_matches_sequential =
  QCheck.Test.make ~name:"kaware parallel = sequential, bit for bit" ~count:100
    (QCheck.pair instance_arbitrary (QCheck.int_bound 4))
    (fun (inst, k) ->
      let g = graph_of_instance inst in
      let reference = Kaware.solve ~jobs:1 g ~k ~initial:(Some 0) in
      List.for_all
        (fun jobs ->
          match (Kaware.solve ~jobs g ~k ~initial:(Some 0), reference) with
          | Some (c, p), Some (c', p') -> same_float c c' && p = p'
          | None, None -> true
          | _ -> false)
        [ 2; 4 ])

(* The constant "stay on node 0" schedule makes no changes, so with
   initial = Some 0 its cost upper-bounds the constrained optimum at every
   k >= 0 — the same shape of bound Optimizer seeds from the merging
   heuristic. *)
let constant_bound inst g = Staged_dag.path_cost g (Array.make inst.n_stages 0)

let kaware_pruned_matches_unpruned =
  QCheck.Test.make ~name:"kaware bound pruning preserves (cost, path)" ~count:150
    (QCheck.pair instance_arbitrary (QCheck.int_bound 4))
    (fun (inst, k) ->
      let g = graph_of_instance inst in
      let initial = Some 0 in
      let ub = constant_bound inst g in
      match
        (Kaware.solve ~upper_bound:ub g ~k ~initial, Kaware.solve g ~k ~initial)
      with
      | Some (c, p), Some (c', p') -> same_float c c' && p = p'
      | None, None -> true
      | _ -> false)

let ranking_budgeted_matches_plain =
  QCheck.Test.make ~name:"ranking bound pruning preserves (cost, path, rank)"
    ~count:150
    (QCheck.pair instance_arbitrary (QCheck.int_bound 3))
    (fun (inst, k) ->
      let g = graph_of_instance inst in
      let initial = Some 0 in
      let ub = constant_bound inst g in
      match
        ( Ranking.solve_constrained g ~k ~initial ~upper_bound:ub
            ~max_paths:100_000 (),
          Ranking.solve_constrained g ~k ~initial ~max_paths:100_000 () )
      with
      | `Found (c, p, r), `Found (c', p', r') -> same_float c c' && p = p' && r = r'
      | `Gave_up _, `Gave_up _ -> true
      | _ -> false)

(* Exhaustive in k: for every budget the instance admits, the DP (pruned
   and unpruned) must match the constrained brute force. *)
let kaware_bruteforce_all_k =
  QCheck.Test.make ~name:"kaware = brute force at every k" ~count:100
    instance_arbitrary (fun inst ->
      let g = graph_of_instance inst in
      let initial = Some 0 in
      let ub = constant_bound inst g in
      List.for_all
        (fun k ->
          let feasible =
            List.filter (fun p -> changes ~initial p <= k) (all_paths inst)
          in
          let best =
            List.fold_left
              (fun acc p -> Float.min acc (Staged_dag.path_cost g p))
              infinity feasible
          in
          match (Kaware.solve g ~k ~initial, Kaware.solve ~upper_bound:ub g ~k ~initial) with
          | Some (cost, path), Some (pruned_cost, pruned_path) ->
              Float.abs (cost -. best) < 1e-6
              && changes ~initial path <= k
              && same_float cost pruned_cost
              && path = pruned_path
          | _ -> false)
        (List.init (inst.n_stages + 1) (fun k -> k)))

(* Both ranking entry points run one search: [solve_constrained] accepts
   the first enumerated path with at most [k] changes, at its 1-based
   position, and gives up exactly where walking [enumerate] would. *)
let ranking_constrained_is_first_enumerated =
  QCheck.Test.make ~name:"solve_constrained = first enumerated path within k"
    ~count:200
    (QCheck.triple instance_arbitrary (QCheck.int_range (-1) 3) (QCheck.int_range 1 20))
    (fun (inst, k, max_paths) ->
      let g = graph_of_instance inst in
      let initial = Some 0 in
      let rec walk rank paths =
        match paths () with
        | Seq.Nil -> `Exhausted (rank - 1)
        | Seq.Cons ((cost, path), rest) ->
            if changes ~initial path <= k then `First (cost, path, rank)
            else if rank >= max_paths then `Budget rank
            else walk (rank + 1) rest
      in
      match
        (walk 1 (Ranking.enumerate g), Ranking.solve_constrained g ~k ~initial ~max_paths ())
      with
      | `First (c, p, r), `Found (c', p', r') -> same_float c c' && p = p' && r = r'
      | `Budget e, `Gave_up { Ranking.examined; reason = Ranking.Path_budget; _ }
      | `Exhausted e, `Gave_up { Ranking.examined; reason = Ranking.Space_exhausted; _ } ->
          e = examined
      | _ -> false)

let ranking_agrees_with_kaware =
  QCheck.Test.make ~name:"ranking stopping rule = kaware optimum" ~count:150
    (QCheck.pair instance_arbitrary (QCheck.int_bound 3))
    (fun (inst, k) ->
      let g = graph_of_instance inst in
      let initial = Some 0 in
      match
        ( Ranking.solve_constrained g ~k ~initial ~max_paths:100_000 (),
          Kaware.solve g ~k ~initial )
      with
      | `Found (rank_cost, _, _), Some (kaware_cost, _) ->
          Float.abs (rank_cost -. kaware_cost) < 1e-6
      | `Gave_up _, None -> true
      | `Gave_up _, Some _ -> false (* budget is generous enough on these sizes *)
      | `Found _, None -> false)

let () =
  Alcotest.run "graph"
    [
      ( "unit",
        [
          Alcotest.test_case "shortest path tiny" `Quick test_shortest_path_tiny;
          Alcotest.test_case "path_cost" `Quick test_path_cost_agrees;
          Alcotest.test_case "path_changes" `Quick test_path_changes;
          Alcotest.test_case "of_matrices validation" `Quick test_of_matrices_invalid;
          Alcotest.test_case "kaware k=0" `Quick test_kaware_k0_stays;
          Alcotest.test_case "kaware negative k" `Quick test_kaware_negative_k;
          Alcotest.test_case "kaware large k" `Quick test_kaware_large_k_equals_unconstrained;
          Alcotest.test_case "ranking first is shortest" `Quick test_ranking_first_is_shortest;
          Alcotest.test_case "ranking enumerates all" `Quick test_ranking_enumerates_all;
          Alcotest.test_case "ranking enumerate is persistent" `Quick
            test_ranking_enumerate_persistent;
          Alcotest.test_case "ranking constrained" `Quick test_ranking_solve_constrained;
          Alcotest.test_case "ranking gives up" `Quick test_ranking_gives_up;
          Alcotest.test_case "ranking queue budget" `Quick test_ranking_queue_budget;
          Alcotest.test_case "ranking space exhausted" `Quick test_ranking_space_exhausted;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest shortest_path_matches_bruteforce;
          QCheck_alcotest.to_alcotest cost_to_go_consistent;
          QCheck_alcotest.to_alcotest kaware_matches_bruteforce;
          QCheck_alcotest.to_alcotest kaware_bruteforce_all_k;
          QCheck_alcotest.to_alcotest kaware_parallel_matches_sequential;
          QCheck_alcotest.to_alcotest kaware_pruned_matches_unpruned;
          QCheck_alcotest.to_alcotest ranking_budgeted_matches_plain;
          QCheck_alcotest.to_alcotest kaware_monotone_in_k;
          QCheck_alcotest.to_alcotest ranking_nondecreasing;
          QCheck_alcotest.to_alcotest ranking_complete;
          QCheck_alcotest.to_alcotest ranking_agrees_with_kaware;
          QCheck_alcotest.to_alcotest ranking_constrained_is_first_enumerated;
        ] );
    ]
