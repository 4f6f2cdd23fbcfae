module Obs = Cddpd_obs
module Parallel = Cddpd_util.Parallel

let m_nodes_expanded = Obs.Registry.counter "advisor.kaware.nodes_expanded"
let m_edges_relaxed = Obs.Registry.counter "advisor.kaware.edges_relaxed"
let m_states_pruned = Obs.Registry.counter "advisor.kaware.states_pruned"
let m_domains_used = Obs.Registry.counter "advisor.kaware.domains_used"

(* The layered DP state space is flat: [dist.(l * n + j)] is the best cost
   reaching node [j] of the current stage having used [l] changes, and
   [pred.(((s * layers) + l) * n + j)] packs the predecessor state as
   [prev_layer * n + prev_node] (-1 when unset).  Packing the predecessor
   into an int kills the boxed-tuple allocation the previous
   representation paid on every improvement — O(stages * layers * n)
   tuples on a large instance.

   Relaxation iterates sources in (node [i] ascending, layer [l] inner)
   order and, per source, destinations [j] ascending.  For any fixed
   destination state, candidates therefore arrive in ascending source-node
   order — the same order as the historical j-outer/i-inner loop nest, so
   tie-breaking (first strict improvement wins) and hence the returned
   path are unchanged.  Every variant below (sequential/parallel slice,
   pruned/unpruned) preserves that order, which is what makes them all
   bit-identical.

   Bound pruning: with an upper bound [ub] (the cost of any known feasible
   ≤ k-changes path) and the exact unconstrained cost-to-go [h], a source
   state with [dist +. h > ub] cannot lie on any schedule that beats the
   bound — in particular not on the constrained optimum — so its outgoing
   relaxations are skipped.  Pruned sources never tie a surviving state's
   minimum (their candidates' f-values stay above [ub]), so the surviving
   DP values and predecessors are exactly those of the unpruned run. *)

(* Relax one stage boundary into destination slice [jlo, jhi).  [h] is the
   cost-to-go of the *source* stage (offset pre-applied); [ub] = infinity
   disables pruning.  Each slice writes only its own [next]/[pred_base]
   columns, so disjoint slices can run on separate domains. *)
let relax_slice (g : Staged_dag.t) ~n ~layers ~stage_base ~h_base ~ub dist next
    pred ~pred_base ~jlo ~jhi =
  let exec = g.Staged_dag.exec and trans = g.Staged_dag.trans in
  for i = 0 to n - 1 do
    let ti = i * n in
    for l = 0 to layers - 1 do
      let lb = l * n in
      let di = dist.(lb + i) in
      if di < infinity && not (di +. h_base.(i) > ub) then begin
        (* Stay on node i: same layer. *)
        if i >= jlo && i < jhi then begin
          let candidate = di +. trans.(ti + i) +. exec.(stage_base + i) in
          if candidate < next.(lb + i) then begin
            next.(lb + i) <- candidate;
            pred.(pred_base + lb + i) <- lb + i
          end
        end;
        (* Switch node: one layer up. *)
        if l + 1 < layers then begin
          let lb1 = lb + n in
          for j = jlo to jhi - 1 do
            if j <> i then begin
              let candidate = di +. trans.(ti + j) +. exec.(stage_base + j) in
              if candidate < next.(lb1 + j) then begin
                next.(lb1 + j) <- candidate;
                pred.(pred_base + lb1 + j) <- lb + i
              end
            end
          done
        end
      end
    done
  done

(* Work per stage below which fork/join overhead beats the parallel
   speedup; an explicit [jobs] argument overrides the heuristic. *)
let parallel_threshold = 1 lsl 16

let resolve_jobs ?jobs ~n ~layers () =
  match jobs with
  | Some j -> max 1 (min j n)
  | None ->
      if layers * n * n < parallel_threshold then 1
      else Parallel.resolve_jobs ~n ()

(* Per-stage source accounting (alive = relaxed, pruned = cut by the
   bound).  Only runs when instrumentation is on; the relax loops carry no
   counters. *)
let tally_sources ~n ~layers ~h_base ~ub dist =
  let alive = ref 0 and alive_lower = ref 0 and pruned = ref 0 in
  for l = 0 to layers - 1 do
    let lb = l * n in
    for i = 0 to n - 1 do
      let di = dist.(lb + i) in
      if di < infinity then
        if di +. h_base.(i) > ub then incr pruned
        else begin
          incr alive;
          if l + 1 < layers then incr alive_lower
        end
    done
  done;
  (!alive, !alive_lower, !pruned)

let solve_dp (g : Staged_dag.t) ?jobs ?upper_bound ~k ~initial () =
  let n = g.Staged_dag.n_nodes in
  let stages = g.Staged_dag.n_stages in
  (match initial with
  | Some j when j < 0 || j >= n -> invalid_arg "Kaware.solve: initial out of range"
  | Some _ | None -> ());
  if k < 0 then None
  else begin
    let layers = k + 1 in
    let states = layers * n in
    let dist = ref (Array.make states infinity) in
    let next = ref (Array.make states infinity) in
    let pred = Array.make (stages * states) (-1) in
    for j = 0 to n - 1 do
      let l =
        match initial with
        | Some init when j <> init -> 1
        | Some _ | None -> 0
      in
      if l < layers then begin
        let cost = g.Staged_dag.source.(j) +. g.Staged_dag.exec.(j) in
        if cost < !dist.((l * n) + j) then !dist.((l * n) + j) <- cost
      end
    done;
    (* The heuristic and the (slightly slackened, so float rounding can
       never cut the optimum) bound.  With no bound the heuristic is a
       zero vector and the prune test is vacuous. *)
    let h, ub =
      match upper_bound with
      | None -> (Array.make (stages * n) 0.0, infinity)
      | Some ub -> (Staged_dag.cost_to_go g, ub +. (Float.abs ub *. 1e-9))
    in
    let domains = resolve_jobs ?jobs ~n ~layers () in
    let instrumented = Obs.Registry.enabled () in
    let nodes_expanded = ref n and edges_relaxed = ref 0 and states_pruned = ref 0 in
    for s = 1 to stages - 1 do
      Array.fill !next 0 states infinity;
      let h_base = Array.sub h ((s - 1) * n) n in
      if instrumented then begin
        let alive, alive_lower, pruned = tally_sources ~n ~layers ~h_base ~ub !dist in
        nodes_expanded := !nodes_expanded + alive;
        edges_relaxed := !edges_relaxed + alive + (alive_lower * (n - 1));
        states_pruned := !states_pruned + pruned
      end;
      let pred_base = s * states in
      let stage_base = s * n in
      if domains = 1 then
        relax_slice g ~n ~layers ~stage_base ~h_base ~ub !dist !next pred ~pred_base
          ~jlo:0 ~jhi:n
      else
        ignore
          (* cddpd-lint: allow domain-race — workers dereference dist/next read-only; array writes are slice-disjoint per chunk and the buffer swap happens on the main domain between stages *)
          (Parallel.map_chunks ~jobs:domains ~n (fun ~lo ~hi ->
               relax_slice g ~n ~layers ~stage_base ~h_base ~ub !dist !next pred
                 ~pred_base ~jlo:lo ~jhi:hi));
      let tmp = !dist in
      dist := !next;
      next := tmp
    done;
    if instrumented then begin
      Obs.Counter.add m_nodes_expanded !nodes_expanded;
      Obs.Counter.add m_edges_relaxed !edges_relaxed;
      Obs.Counter.add m_states_pruned !states_pruned;
      Obs.Counter.add m_domains_used domains
    end;
    let dist = !dist in
    let best = ref None in
    for l = 0 to layers - 1 do
      for j = 0 to n - 1 do
        if dist.((l * n) + j) < infinity then begin
          let total = dist.((l * n) + j) +. g.Staged_dag.sink.(j) in
          match !best with
          | Some (cost, _, _) when cost <= total -> ()
          | Some _ | None -> best := Some (total, l, j)
        end
      done
    done;
    match !best with
    | None -> None
    | Some (cost, l, j) ->
        let path = Array.make stages 0 in
        let rec rebuild s l j =
          path.(s) <- j;
          if s > 0 then begin
            let packed = pred.((s * states) + (l * n) + j) in
            rebuild (s - 1) (packed / n) (packed mod n)
          end
        in
        rebuild (stages - 1) l j;
        Some (cost, path)
  end

let solve ?jobs ?upper_bound g ~k ~initial =
  Obs.Span.with_span "advisor.kaware" (fun () ->
      solve_dp g ?jobs ?upper_bound ~k ~initial ())
