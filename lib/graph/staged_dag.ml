type t = {
  n_stages : int;
  n_nodes : int;
  exec : float array;  (* stage-major: stage * n_nodes + node *)
  trans : float array;  (* src * n_nodes + dst *)
  source : float array;
  sink : float array;
}

let of_matrices ~exec ~trans ?source ?sink () =
  let n_stages = Array.length exec in
  if n_stages = 0 then invalid_arg "Staged_dag.of_matrices: no stages";
  let n_nodes = Array.length trans in
  if n_nodes = 0 then invalid_arg "Staged_dag.of_matrices: no nodes";
  let flatten ~rows ~cols what m =
    let flat = Array.make (rows * cols) 0.0 in
    Array.iteri
      (fun i row ->
        if Array.length row <> cols then
          invalid_arg (Printf.sprintf "Staged_dag.of_matrices: ragged %s row" what);
        Array.blit row 0 flat (i * cols) cols)
      m;
    flat
  in
  let exec = flatten ~rows:n_stages ~cols:n_nodes "exec" exec in
  let trans = flatten ~rows:n_nodes ~cols:n_nodes "trans" trans in
  let vector what v =
    match v with
    | None -> Array.make n_nodes 0.0
    | Some v ->
        if Array.length v <> n_nodes then
          invalid_arg (Printf.sprintf "Staged_dag.of_matrices: %s length" what);
        Array.copy v
  in
  let source = vector "source" source in
  let sink = vector "sink" sink in
  { n_stages; n_nodes; exec; trans; source; sink }

let check_path t path =
  if Array.length path <> t.n_stages then
    invalid_arg "Staged_dag: path length differs from n_stages";
  Array.iter
    (fun j ->
      if j < 0 || j >= t.n_nodes then invalid_arg "Staged_dag: path node out of range")
    path

let path_cost t path =
  check_path t path;
  let n = t.n_nodes in
  let acc = ref (t.source.(path.(0)) +. t.exec.(path.(0))) in
  for s = 1 to t.n_stages - 1 do
    acc :=
      !acc +. t.trans.((path.(s - 1) * n) + path.(s)) +. t.exec.((s * n) + path.(s))
  done;
  !acc +. t.sink.(path.(t.n_stages - 1))

(* Exact unconstrained cost-to-go, flat and stage-major:
   [h.(s * n_nodes + j)] is the cheapest completion from node [j] of stage
   [s] — excluding node [j]'s own cost, including the sink edge.  This is
   the admissible heuristic shared by the ranking search and the k-aware
   branch-and-bound pruner. *)
let cost_to_go t =
  let n = t.n_nodes in
  let stages = t.n_stages in
  let exec = t.exec and trans = t.trans in
  let h = Array.make (stages * n) 0.0 in
  Array.blit t.sink 0 h ((stages - 1) * n) n;
  (* [comp.(j)] hoists the loop-invariant "arrive at j" part (node cost
     plus completion) out of the O(n^2) source scan. *)
  let comp = Array.make n 0.0 in
  for s = stages - 2 downto 0 do
    let hb = s * n and hb1 = (s + 1) * n in
    for j = 0 to n - 1 do
      comp.(j) <- exec.(hb1 + j) +. h.(hb1 + j)
    done;
    for i = 0 to n - 1 do
      let ti = i * n in
      let best = ref infinity in
      for j = 0 to n - 1 do
        let candidate = trans.(ti + j) +. comp.(j) in
        if candidate < !best then best := candidate
      done;
      h.(hb + i) <- !best
    done
  done;
  h

let path_changes t ~initial path =
  check_path t path;
  let changes = ref 0 in
  (match initial with
  | Some j -> if path.(0) <> j then incr changes
  | None -> ());
  for s = 1 to t.n_stages - 1 do
    if path.(s) <> path.(s - 1) then incr changes
  done;
  !changes

(* One stage of the Bellman relaxation into [next]; the first strict
   improvement wins, so ties keep the lowest source node. *)
let relax t dist next pred s =
  let n = t.n_nodes in
  let exec = t.exec and trans = t.trans in
  let stage_base = s * n in
  for j = 0 to n - 1 do
    let node = exec.(stage_base + j) in
    let best = ref next.(j) and best_pred = ref (-1) in
    for i = 0 to n - 1 do
      let candidate = dist.(i) +. trans.((i * n) + j) +. node in
      if candidate < !best then begin
        best := candidate;
        best_pred := i
      end
    done;
    if !best_pred >= 0 then begin
      next.(j) <- !best;
      pred.(s).(j) <- !best_pred
    end
  done

let shortest_path t =
  let n = t.n_nodes in
  (* dist.(j): best cost of reaching node j of the current stage;
     pred.(s).(j): predecessor of (s, j) on that best path. *)
  let dist = Array.init n (fun j -> t.source.(j) +. t.exec.(j)) in
  let pred = Array.make_matrix t.n_stages n (-1) in
  let next = Array.make n infinity in
  for s = 1 to t.n_stages - 1 do
    Array.fill next 0 n infinity;
    relax t dist next pred s;
    Array.blit next 0 dist 0 n
  done;
  let best = ref 0 in
  let best_cost = ref infinity in
  for j = 0 to n - 1 do
    let total = dist.(j) +. t.sink.(j) in
    if total < !best_cost then begin
      best_cost := total;
      best := j
    end
  done;
  let path = Array.make t.n_stages 0 in
  path.(t.n_stages - 1) <- !best;
  for s = t.n_stages - 1 downto 1 do
    path.(s - 1) <- pred.(s).(path.(s))
  done;
  (!best_cost, path)
