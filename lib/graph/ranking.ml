module Obs = Cddpd_obs

let m_nodes_expanded = Obs.Registry.counter "advisor.ranking.nodes_expanded"
let m_paths_emitted = Obs.Registry.counter "advisor.ranking.paths_emitted"
let m_paths_pruned = Obs.Registry.counter "advisor.ranking.paths_pruned"
let m_partials_pruned = Obs.Registry.counter "advisor.ranking.partials_pruned"
let m_queue_peak = Obs.Registry.histogram "advisor.ranking.queue_peak"

type give_up_reason = Space_exhausted | Path_budget | Queue_budget

let reason_to_string reason =
  match reason with
  | Space_exhausted -> "space exhausted"
  | Path_budget -> "path budget hit"
  | Queue_budget -> "queue budget hit"

type gave_up = {
  examined : int;
  queue_peak : int;
  reason : give_up_reason;
}

(* The search keeps its frontier in a growable arena instead of
   per-partial path lists: one slot per inserted partial holding its node,
   stage, accumulated cost and parent slot, with the priority queue
   carrying arena ids only.  Paths are rebuilt by chasing parents on
   emission.  This caps the per-insertion footprint at a few words,
   detaches memory from path length, and makes the queue budget exact. *)
type arena = {
  mutable nodes : int array;
  mutable stages : int array;
  mutable parents : int array;
  mutable g_costs : float array;
  mutable len : int;
}

let arena_create () =
  {
    nodes = Array.make 1024 0;
    stages = Array.make 1024 0;
    parents = Array.make 1024 (-1);
    g_costs = Array.make 1024 0.0;
    len = 0;
  }

let arena_push a ~node ~stage ~parent ~g_cost =
  if a.len = Array.length a.nodes then begin
    let grow ar fill =
      let bigger = Array.make (2 * Array.length ar) fill in
      Array.blit ar 0 bigger 0 a.len;
      bigger
    in
    a.nodes <- grow a.nodes 0;
    a.stages <- grow a.stages 0;
    a.parents <- grow a.parents (-1);
    a.g_costs <- grow a.g_costs 0.0
  end;
  let id = a.len in
  a.nodes.(id) <- node;
  a.stages.(id) <- stage;
  a.parents.(id) <- parent;
  a.g_costs.(id) <- g_cost;
  a.len <- id + 1;
  id

let arena_path a id ~stages =
  let path = Array.make stages 0 in
  let rec go id s =
    path.(s) <- a.nodes.(id);
    if s > 0 then go a.parents.(id) (s - 1)
  in
  go id (stages - 1);
  path

(* Mutable binary min-heap over (f-value, arena id), ties broken by arena
   id — i.e. insertion order.  The stable tie-break is load-bearing for
   the bound-pruning guarantee: arena ids stay in the same relative order
   whether or not over-bound partials were discarded, so the pruned and
   unpruned searches pop identical state sequences and accept the same
   path at the same rank (a structure-dependent tie-break would not
   promise that). *)
type heap = {
  mutable prios : float array;
  mutable heap_ids : int array;
  mutable size : int;
}

let heap_create () = { prios = Array.make 1024 0.0; heap_ids = Array.make 1024 0; size = 0 }

let heap_less h i j =
  h.prios.(i) < h.prios.(j)
  || (Float.equal h.prios.(i) h.prios.(j) && h.heap_ids.(i) < h.heap_ids.(j))

let heap_swap h i j =
  let p = h.prios.(i) and id = h.heap_ids.(i) in
  h.prios.(i) <- h.prios.(j);
  h.heap_ids.(i) <- h.heap_ids.(j);
  h.prios.(j) <- p;
  h.heap_ids.(j) <- id

let heap_push h prio id =
  if h.size = Array.length h.prios then begin
    let grow ar fill =
      let bigger = Array.make (2 * Array.length ar) fill in
      Array.blit ar 0 bigger 0 h.size;
      bigger
    in
    h.prios <- grow h.prios 0.0;
    h.heap_ids <- grow h.heap_ids 0
  end;
  h.prios.(h.size) <- prio;
  h.heap_ids.(h.size) <- id;
  h.size <- h.size + 1;
  let i = ref (h.size - 1) in
  while !i > 0 && heap_less h !i ((!i - 1) / 2) do
    heap_swap h !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

let heap_pop h =
  if h.size = 0 then None
  else begin
    let prio = h.prios.(0) and id = h.heap_ids.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.prios.(0) <- h.prios.(h.size);
      h.heap_ids.(0) <- h.heap_ids.(h.size);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.size && heap_less h l !smallest then smallest := l;
        if r < h.size && heap_less h r !smallest then smallest := r;
        if !smallest = !i then continue := false
        else begin
          heap_swap h !i !smallest;
          i := !smallest
        end
      done
    end;
    Some (prio, id)
  end

(* Best-first search shared by {!enumerate} and {!solve_constrained}.
   With an exact heuristic, the f-value of a popped state equals the true
   cost of the best completion of its prefix, so completed paths pop in
   nondecreasing cost order.  [ub] discards partials at insertion and
   [max_queue] stops the search once an insertion would overflow the
   frontier; [enumerate] uses neither. *)
type search = {
  graph : Staged_dag.t;
  h : float array;
  ub : float;
  max_queue : int;
  arena : arena;
  queue : heap;
  mutable queue_peak : int;
  mutable partials_pruned : int;
  mutable over_budget : bool;
}

let push s ~node ~stage ~parent ~g_cost f =
  if f > s.ub then s.partials_pruned <- s.partials_pruned + 1
  else if s.queue.size >= s.max_queue then s.over_budget <- true
  else begin
    let id = arena_push s.arena ~node ~stage ~parent ~g_cost in
    heap_push s.queue f id;
    if s.queue.size > s.queue_peak then s.queue_peak <- s.queue.size
  end

(* Seed the frontier with every stage-0 node. *)
let start ~ub ~max_queue (g : Staged_dag.t) =
  let s =
    {
      graph = g;
      h = Staged_dag.cost_to_go g;
      ub;
      max_queue;
      arena = arena_create ();
      queue = heap_create ();
      queue_peak = 0;
      partials_pruned = 0;
      over_budget = false;
    }
  in
  for j = 0 to g.Staged_dag.n_nodes - 1 do
    let g_cost = g.Staged_dag.source.(j) +. g.Staged_dag.exec.(j) in
    push s ~node:j ~stage:0 ~parent:(-1) ~g_cost (g_cost +. s.h.(j))
  done;
  s

(* Pop and expand until the next complete path pops.  [None] once the
   frontier is empty or the queue budget was hit ([over_budget] tells the
   two apart). *)
let rec next_path s =
  if s.over_budget then None
  else
    match heap_pop s.queue with
    | None -> None
    | Some (f, id) ->
        Obs.Counter.incr m_nodes_expanded;
        let g = s.graph in
        let n = g.Staged_dag.n_nodes and stages = g.Staged_dag.n_stages in
        let stage = s.arena.stages.(id) in
        if stage = stages - 1 then begin
          Obs.Counter.incr m_paths_emitted;
          Some (f, arena_path s.arena id ~stages)
        end
        else begin
          let g_cost = s.arena.g_costs.(id) in
          let tb = s.arena.nodes.(id) * n in
          let hb = (stage + 1) * n in
          for j' = 0 to n - 1 do
            let g_cost' =
              g_cost +. g.Staged_dag.trans.(tb + j') +. g.Staged_dag.exec.(hb + j')
            in
            push s ~node:j' ~stage:(stage + 1) ~parent:id ~g_cost:g_cost'
              (g_cost' +. s.h.(hb + j'))
          done;
          next_path s
        end

let enumerate g =
  let s = start ~ub:infinity ~max_queue:max_int g in
  let rec next () =
    match next_path s with
    | None -> Seq.Nil
    | Some path -> Seq.Cons (path, next)
  in
  Seq.memoize next

let solve_constrained g ~k ~initial ?upper_bound ?(max_paths = 1_000_000)
    ?(max_queue = max_int) () =
  Obs.Span.with_span "advisor.ranking" (fun () ->
      (* Slackened like the k-aware pruner: a bound that is the cost of a
         feasible path can never cut the constrained optimum, float
         rounding included. *)
      let ub =
        match upper_bound with
        | None -> infinity
        | Some ub -> ub +. (Float.abs ub *. 1e-9)
      in
      let s = start ~ub ~max_queue g in
      let rec scan rank =
        match next_path s with
        | None -> `Stop ((if s.over_budget then Queue_budget else Space_exhausted), rank - 1)
        | Some (f, path) ->
            if Staged_dag.path_changes g ~initial path <= k then `Done (f, path, rank)
            else if rank >= max_paths then `Stop (Path_budget, rank)
            else begin
              Obs.Counter.incr m_paths_pruned;
              scan (rank + 1)
            end
      in
      let outcome = scan 1 in
      if Obs.Registry.enabled () then begin
        Obs.Counter.add m_partials_pruned s.partials_pruned;
        Obs.Histogram.observe m_queue_peak (float_of_int s.queue_peak)
      end;
      match outcome with
      | `Done (cost, path, rank) -> `Found (cost, path, rank)
      | `Stop (reason, examined) ->
          `Gave_up { examined; queue_peak = s.queue_peak; reason })
