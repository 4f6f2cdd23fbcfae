module Ast = Cddpd_sql.Ast
module Cost_model = Cddpd_engine.Cost_model
module Cost_key = Cddpd_engine.Cost_key
module Design = Cddpd_catalog.Design
module Structure = Cddpd_catalog.Structure
module Compress = Cddpd_workload.Compress
module Obs = Cddpd_obs

let m_pruned = Obs.Registry.counter "candidates.pruned"
let m_clusters = Obs.Registry.counter "workload.clusters"

type scored = {
  structure : Structure.t;
  benefit : float array;
  weighted_benefit : float;
  size_bytes : int;
  build_cost : float;
}

let score ~params ~stats_of ~steps candidates =
  let flat = Array.concat (Array.to_list steps) in
  if Array.length flat = 0 then invalid_arg "Pruner.score: empty workload";
  let clustering =
    Compress.cluster
      ~key:(fun statement -> Cost_key.statement (stats_of (Ast.table_of statement)) statement)
      flat
  in
  let n_clusters = Compress.n_clusters clustering in
  Obs.Counter.add m_clusters n_clusters;
  let reps = Array.map (fun i -> flat.(i)) clustering.Compress.representatives in
  let base =
    Array.map
      (fun rep ->
        Cost_model.statement_cost params (stats_of (Ast.table_of rep)) Design.empty rep)
      reps
  in
  List.map
    (fun structure ->
      let stats = stats_of (Structure.table structure) in
      let design = Design.add_structure structure Design.empty in
      let benefit =
        Array.init n_clusters (fun r ->
            let rep = reps.(r) in
            base.(r)
            -. Cost_model.statement_cost params (stats_of (Ast.table_of rep)) design rep)
      in
      let weighted_benefit =
        let acc = ref 0.0 in
        Array.iteri
          (fun r b ->
            acc := !acc +. (float_of_int clustering.Compress.counts.(r) *. b))
          benefit;
        !acc
      in
      {
        structure;
        benefit;
        weighted_benefit;
        size_bytes = Cost_model.structure_size_bytes params ~stats structure;
        build_cost = Cost_model.structure_build_cost params stats structure;
      })
    candidates

let rank s1 s2 =
  let c = Float.compare s2.weighted_benefit s1.weighted_benefit in
  if c <> 0 then c
  else
    let c = Int.compare s1.size_bytes s2.size_bytes in
    if c <> 0 then c
    else String.compare (Cost_key.structure s1.structure) (Cost_key.structure s2.structure)

(* [s'] dominates [s]: at least as beneficial on every cluster, no larger,
   no more expensive to build.  Swapping [s] for [s'] in any atomic
   schedule then never raises EXEC (per-cluster benefits bound every
   step's sum), never raises TRANS (build cost no higher, drop cost
   identical), and never violates a SIZE bound [s] satisfied — which is
   the exactness argument the property tests check. *)
let dominates s' s =
  s'.size_bytes <= s.size_bytes
  && s'.build_cost <= s.build_cost
  && Array.for_all2 (fun b' b -> b' >= b) s'.benefit s.benefit

let dominance_prune ?max_candidates scored =
  Obs.Span.with_span "problem.prune" @@ fun () ->
  let ranked = List.sort rank scored in
  (* Best-first: a candidate is dropped only when an already-surviving one
     dominates it, so one member of every mutually-dominating clique
     survives. *)
  let survivors =
    List.fold_left
      (fun survivors s ->
        if List.exists (fun s' -> dominates s' s) survivors then survivors
        else s :: survivors)
      [] ranked
  in
  let survivors = List.rev survivors in
  let survivors =
    match max_candidates with
    | None -> survivors
    | Some cap ->
        if cap < 1 then invalid_arg "Pruner.dominance_prune: max_candidates < 1";
        List.filteri (fun i _ -> i < cap) survivors
  in
  let pruned = List.length scored - List.length survivors in
  Obs.Counter.add m_pruned pruned;
  (survivors, pruned)

exception Budget_exhausted

let space ?(max_structures = 1) ?space_bound_bytes ?(max_configs = 512) scored =
  if max_structures < 1 then invalid_arg "Pruner.space: max_structures < 1";
  if max_configs < 1 then invalid_arg "Pruner.space: max_configs < 1";
  let ranked = Array.of_list (List.sort rank scored) in
  let n = Array.length ranked in
  let fits total_size =
    match space_bound_bytes with None -> true | Some bound -> total_size <= bound
  in
  let out = ref [ Design.empty ] in
  let emitted = ref 1 in
  let emit design =
    if !emitted >= max_configs then raise Budget_exhausted;
    out := design :: !out;
    incr emitted
  in
  (* Atomic closure first — every surviving candidate gets its singleton
     configuration — then wider subsets of the best-ranked candidates in
     rank-lexicographic order, so the config budget is spent on the
     top-scoring combinations. *)
  (try
     for i = 0 to n - 1 do
       if fits ranked.(i).size_bytes then
         emit (Design.add_structure ranked.(i).structure Design.empty)
     done;
     for width = 2 to max_structures do
       let rec combos start chosen_rev size count =
         if count = width then emit (List.fold_left (fun d s -> Design.add_structure s d) Design.empty chosen_rev)
         else
           for i = start to n - 1 do
             let size = size + ranked.(i).size_bytes in
             if fits size then
               combos (i + 1) (ranked.(i).structure :: chosen_rev) size (count + 1)
           done
       in
       combos 0 [] 0 0
     done
   with Budget_exhausted -> ());
  Config_space.of_designs (List.rev !out)
