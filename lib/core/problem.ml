module Ast = Cddpd_sql.Ast
module Cost_model = Cddpd_engine.Cost_model
module Cost_cache = Cddpd_engine.Cost_cache
module Cost_key = Cddpd_engine.Cost_key
module Design = Cddpd_catalog.Design
module Structure = Cddpd_catalog.Structure
module Staged_dag = Cddpd_graph.Staged_dag
module Compress = Cddpd_workload.Compress
module Table_stats = Cddpd_engine.Table_stats
module Obs = Cddpd_obs

let m_builds = Obs.Registry.counter "problem.builds"
let m_clusters = Obs.Registry.counter "workload.clusters"
let m_reopt_exec_reused = Obs.Registry.counter "reopt.exec_columns_reused"
let m_reopt_clusters_recosted = Obs.Registry.counter "reopt.clusters_recosted"
let m_steps_reused = Obs.Registry.counter "problem.steps_reused"

type t = {
  steps : Ast.statement array array;
  space : Config_space.t;
  initial : int;
  exec : float array array;
  trans : float array array;
  count_initial_change : bool;
  graph : Staged_dag.t Lazy.t;
}

(* The sequence graph is derived from the matrices and immutable, so it is
   built once and memoized: path_cost / path_changes / solver calls on the
   same instance no longer re-flatten the matrices each time. *)
let make_t ~steps ~space ~initial ~exec ~trans ~count_initial_change =
  let graph =
    lazy (Staged_dag.of_matrices ~exec ~trans ~source:trans.(initial) ())
  in
  { steps; space; initial; exec; trans; count_initial_change; graph }

let n_steps t = Array.length t.steps

let n_configs t = Config_space.size t.space

(* The structure universe: every structure of the space once, sorted by
   [Structure.compare] — which is [Design.fold]'s order — and each
   configuration's members as ascending universe positions, so visiting
   them in order visits the design in fold order. *)
type universe = {
  structures : Structure.t array;
  structure_keys : string array;
  members : int array array;  (** config id -> universe positions, ascending *)
}

let universe_of designs =
  let structures =
    Array.of_list (Design.structures (Array.fold_left Design.union Design.empty designs))
  in
  let structure_keys = Array.map Cost_key.structure structures in
  let position = Hashtbl.create (max 16 (Array.length structures)) in
  Array.iteri (fun i key -> Hashtbl.replace position key i) structure_keys;
  let members =
    Array.map
      (fun design ->
        Array.of_list
          (List.map
             (fun s -> Hashtbl.find position (Cost_key.structure s))
             (Design.structures design)))
      designs
  in
  { structures; structure_keys; members }

(* What a session's latest build computed, kept for the next build: the
   space's designs and the statistics snapshot it ran under, its
   structure universe and TRANS, and each step's statement array, cost
   keys and EXEC row.  The next build reuses them only under the same
   space and physically the same snapshot (see [build]). *)
type previous = {
  designs : Design.t array;
  snapshot : (string * Table_stats.t) list;
  universe : universe;
  trans : float array array;
  steps : Ast.statement array array;
  step_keys : Cost_key.id array array;
  exec : float array array;
}

module Reuse = struct
  type tallies = {
    builds : int;
    exec_columns_reused : int;
    clusters_recosted : int;
  }

  type t = {
    memo : Cost_cache.t;
    mutable previous : previous option;
    mutable t_builds : int;
    mutable t_exec_columns_reused : int;
    mutable t_clusters_recosted : int;
  }

  let create () =
    {
      memo = Cost_cache.create ();
      previous = None;
      t_builds = 0;
      t_exec_columns_reused = 0;
      t_clusters_recosted = 0;
    }

  let memo t = t.memo

  let tallies t =
    {
      builds = t.t_builds;
      exec_columns_reused = t.t_exec_columns_reused;
      clusters_recosted = t.t_clusters_recosted;
    }
end

(* -- build stages --------------------------------------------------------------- *)

(* Snapshot statistics once: a Database-backed [stats_of] computes stats
   lazily (mutating the database), so every table the build can touch is
   resolved here and the stages below read the snapshot.  Statements come
   in runs on one table, so the table is resolved once per run.  Also
   returns each table with its statistics, in the order they were
   resolved. *)
let snapshot_stats stats_of steps designs =
  let stats_tbl = Hashtbl.create 8 in
  let tables = ref [] in
  let resolve table =
    if not (Hashtbl.mem stats_tbl table) then begin
      let stats = stats_of table in
      Hashtbl.replace stats_tbl table stats;
      tables := (table, stats) :: !tables
    end
  in
  let last = ref None in
  Array.iter
    (fun step ->
      Array.iter
        (fun s ->
          let table = Ast.table_of s in
          match !last with
          | Some run when run == table || String.equal run table -> ()
          | Some _ | None ->
              resolve table;
              last := Some table)
        step)
    steps;
  Array.iter
    (fun design -> Design.fold (fun s () -> resolve (Structure.table s)) design ())
    designs;
  (stats_tbl, List.rev !tables)

(* Stage 1, key: every statement's hashed {!Cost_key} cost identity under
   the snapshot statistics, unless the caller already paid for them. *)
let key_statements stats_of statement_keys flat =
  match statement_keys with
  | Some keys ->
      if Array.length keys <> Array.length flat then
        invalid_arg "Problem.build: statement_keys length mismatch";
      keys
  | None -> Array.map (fun s -> Cost_key.id (Cost_key.statement (stats_of (Ast.table_of s)) s)) flat

(* Stage 2, cluster: statements with equal keys have equal cost under every
   design, so each configuration composes one cost per cluster instead of
   per statement. *)
type clusters = {
  keys : Cost_key.id array;  (** cluster id -> cost identity *)
  reps : Ast.statement array;  (** cluster id -> representative statement *)
  of_step : int array array;  (** cluster id of each statement, step by step *)
}

let cluster steps flat keys =
  let clustering = Compress.cluster_by ~hash:Cost_key.id_hash ~equal:Cost_key.id_equal keys in
  Obs.Counter.add m_clusters (Compress.n_clusters clustering);
  let pos = ref 0 in
  let of_step =
    Array.map
      (fun step ->
        let ids = Array.sub clustering.Compress.cluster_of !pos (Array.length step) in
        pos := !pos + Array.length step;
        ids)
      steps
  in
  let first = clustering.Compress.representatives in
  { keys = Array.map (fun i -> keys.(i)) first; reps = Array.map (fun i -> flat.(i)) first; of_step }

(* Stage 3, fill: every cluster's atom for every universe structure, then
   every configuration's cluster costs composed from them.  The session's
   memo ({!Cost_cache}) supplies the rows: a cluster whose cost identity
   the previous build also had keeps every atom already evaluated, and
   only the missing (cluster, structure) pairs reach the cost model.
   Composing a cell folds the design's atoms exactly as
   {!Cost_model.bound_cost} does — strict [<] from the base cost,
   maintenance summed in member order — so it is the same float.  Only
   the clusters [compose] lists are composed: the memo still sees every
   cluster, so its tallies do not depend on which steps the build
   reuses.  Returns one cost array per configuration, indexed by cluster
   id. *)
let fill_columns ~params ~snapshot (reuse : Reuse.t) universe clusters ~compose =
  let n_clusters = Array.length clusters.reps in
  let { Cost_cache.rows; ids; recosted; fresh } =
    Cost_cache.lookup reuse.Reuse.memo params ~snapshot ~structures:universe.structures
      ~structure_keys:universe.structure_keys ~cluster_keys:clusters.keys ~reps:clusters.reps
  in
  reuse.Reuse.t_clusters_recosted <- reuse.Reuse.t_clusters_recosted + recosted;
  Obs.Counter.add m_reopt_clusters_recosted recosted;
  (* A column is reused when every atom it composes was already known. *)
  if recosted = 0 && n_clusters > 0 then begin
    let reused =
      Array.fold_left
        (fun acc members -> if Array.exists (fun u -> fresh.(u)) members then acc else acc + 1)
        0 universe.members
    in
    reuse.Reuse.t_exec_columns_reused <- reuse.Reuse.t_exec_columns_reused + reused;
    Obs.Counter.add m_reopt_exec_reused reused
  end;
  let member_ids = Array.map (Array.map (fun u -> ids.(u))) universe.members in
  let writes = Array.map (fun rep -> not (Ast.is_read_only rep)) clusters.reps in
  let n_compose = Array.length compose in
  Array.map
    (fun ids ->
      let costs = Array.make n_clusters 0.0 in
      for i = 0 to n_compose - 1 do
        let r = compose.(i) in
        let row = rows.(r) in
        let best = ref row.Cost_cache.base in
        let maintenance = ref 0.0 in
        for m = 0 to Array.length ids - 1 do
          let access = row.Cost_cache.access.(ids.(m)) in
          if access < !best then best := access;
          if writes.(r) then maintenance := !maintenance +. row.Cost_cache.maintenance.(ids.(m))
        done;
        costs.(r) <-
          Cost_model.compose params row.Cost_cache.bound ~access:!best ~maintenance:!maintenance
      done;
      costs)
    member_ids

(* Stage 4, expand: sum each step's cluster costs in the original statement
   order — the floats the naive per-statement fold adds, in the same order,
   so every cell is bit-identical to it.  A step with a [kept] row takes
   it as is. *)
let expand clusters columns ~kept =
  Array.mapi
    (fun s ids ->
      match kept.(s) with
      | Some row -> row
      | None ->
          Array.map
            (fun costs ->
              let acc = ref 0.0 in
              for q = 0 to Array.length ids - 1 do
                acc := !acc +. costs.(ids.(q))
              done;
              !acc)
            columns)
    clusters.of_step

(* Stage 5, TRANS: every universe structure's build cost once, then each
   pair (i, j) marks configuration i's members and walks configuration j's
   in ascending universe order — [Design.fold]'s order over the diff —
   adding the build cost of each unmarked member, plus one drop per member
   of i that j does not keep.  So each entry is the bit-identical float
   [Cost_model.transition_cost] computes. *)
let fill_trans ~params ~snapshot universe =
  let n_configs = Array.length universe.members in
  let build_cost =
    Array.map
      (fun s -> Cost_model.structure_build_cost params (Hashtbl.find snapshot (Structure.table s)) s)
      universe.structures
  in
  let trans = Array.make_matrix n_configs n_configs 0.0 in
  let marked = Array.make (Array.length universe.structures) false in
  for i = 0 to n_configs - 1 do
    let from_members = universe.members.(i) in
    Array.iter (fun u -> marked.(u) <- true) from_members;
    let row = trans.(i) in
    for j = 0 to n_configs - 1 do
      if i <> j then begin
        let to_members = universe.members.(j) in
        let built = ref 0.0 and kept = ref 0 in
        (* Unchecked: [m] ranges over [to_members], and every member is a
           universe position, which indexes [marked] and [build_cost]. *)
        for m = 0 to Array.length to_members - 1 do
          let u = Array.unsafe_get to_members m in
          if Array.unsafe_get marked u then incr kept
          else built := !built +. Array.unsafe_get build_cost u
        done;
        row.(j) <-
          !built
          +. (params.Cost_model.drop_cost *. float_of_int (Array.length from_members - !kept))
      end
    done;
    Array.iter (fun u -> marked.(u) <- false) from_members
  done;
  trans

(* The previous build's results are this build's when the space is the
   same (the same designs in the same order) and every table's statistics
   are physically the previous snapshot's: TRANS and the universe depend on
   nothing else. *)
let comparable (p : previous) ~designs ~snapshot =
  Array.length p.designs = Array.length designs
  && Array.for_all2 (fun a b -> a == b || Design.equal a b) p.designs designs
  && List.length p.snapshot = Hashtbl.length snapshot
  && List.for_all
       (fun (table, was) ->
         match Hashtbl.find_opt snapshot table with Some now -> now == was | None -> false)
       p.snapshot

(* The EXEC row of a previous step with this very statement array and
   these cost keys: under a comparable space and snapshot every cell of it
   is the one this build would compute. *)
let kept_row (p : previous) step keys =
  let same_keys was = Array.for_all2 Cost_key.id_equal was keys in
  let rec find j =
    if j = Array.length p.steps then None
    else if p.steps.(j) == step && same_keys p.step_keys.(j) then Some p.exec.(j)
    else find (j + 1)
  in
  find 0

let build ~params ~stats_of ~steps ~space ~initial ?(count_initial_change = false)
    ?(reuse = Reuse.create ()) ?statement_keys () =
  if Array.length steps = 0 then invalid_arg "Problem.build: no steps";
  Obs.Span.with_span "problem.build" @@ fun () ->
  Obs.Counter.incr m_builds;
  let initial_id = Config_space.id_of_exn space initial in
  let designs = Array.init (Config_space.size space) (Config_space.design space) in
  let snapshot, tables = snapshot_stats stats_of steps designs in
  let stats_of table = Hashtbl.find snapshot table in
  let previous =
    match reuse.Reuse.previous with
    | Some p when comparable p ~designs ~snapshot -> Some p
    | Some _ | None -> None
  in
  let flat = Array.concat (Array.to_list steps) in
  let universe = match previous with Some p -> p.universe | None -> universe_of designs in
  let step_keys, exec =
    Obs.Span.with_span "problem.build.exec" @@ fun () ->
    let keys =
      Obs.Span.with_span "problem.build.key" (fun () ->
          key_statements stats_of statement_keys flat)
    in
    let clusters =
      Obs.Span.with_span "problem.build.cluster" (fun () -> cluster steps flat keys)
    in
    let step_keys =
      let pos = ref 0 in
      Array.map
        (fun step ->
          let slice = Array.sub keys !pos (Array.length step) in
          pos := !pos + Array.length step;
          slice)
        steps
    in
    let kept =
      match previous with
      | None -> Array.make (Array.length steps) None
      | Some p -> Array.map2 (kept_row p) steps step_keys
    in
    let n_kept = Array.fold_left (fun n row -> if Option.is_some row then n + 1 else n) 0 kept in
    Obs.Counter.add m_steps_reused n_kept;
    let compose =
      let needed = Array.make (Array.length clusters.reps) false in
      Array.iteri
        (fun s ids -> if Option.is_none kept.(s) then Array.iter (fun r -> needed.(r) <- true) ids)
        clusters.of_step;
      Array.of_list (List.filter (fun r -> needed.(r)) (List.init (Array.length needed) Fun.id))
    in
    let columns =
      Obs.Span.with_span "problem.build.fill" (fun () ->
          fill_columns ~params ~snapshot reuse universe clusters ~compose)
    in
    (step_keys, Obs.Span.with_span "problem.build.expand" (fun () -> expand clusters columns ~kept))
  in
  let trans =
    Obs.Span.with_span "problem.build.trans" @@ fun () ->
    match previous with Some p -> p.trans | None -> fill_trans ~params ~snapshot universe
  in
  reuse.Reuse.previous <-
    Some
      {
        designs;
        snapshot = tables;
        universe;
        trans;
        steps = Array.copy steps;
        step_keys;
        exec;
      };
  reuse.Reuse.t_builds <- reuse.Reuse.t_builds + 1;
  make_t ~steps ~space ~initial:initial_id ~exec ~trans ~count_initial_change

let of_matrices ~steps ~space ~initial ~exec ~trans ?(count_initial_change = false) () =
  let n_steps = Array.length steps in
  let n_configs = Config_space.size space in
  if n_steps = 0 then invalid_arg "Problem.of_matrices: no steps";
  if initial < 0 || initial >= n_configs then
    invalid_arg "Problem.of_matrices: initial out of range";
  if Array.length exec <> n_steps then
    invalid_arg "Problem.of_matrices: exec has wrong number of rows";
  Array.iter
    (fun row ->
      if Array.length row <> n_configs then
        invalid_arg "Problem.of_matrices: exec row has wrong width";
      Array.iter
        (fun c -> if c < 0.0 then invalid_arg "Problem.of_matrices: negative exec cost")
        row)
    exec;
  if Array.length trans <> n_configs then
    invalid_arg "Problem.of_matrices: trans has wrong number of rows";
  Array.iteri
    (fun i row ->
      if Array.length row <> n_configs then
        invalid_arg "Problem.of_matrices: trans row has wrong width";
      Array.iteri
        (fun j c ->
          if c < 0.0 then invalid_arg "Problem.of_matrices: negative trans cost";
          if i = j && not (Float.equal c 0.0) then
            invalid_arg "Problem.of_matrices: non-zero self-transition")
        row)
    trans;
  make_t ~steps ~space ~initial ~exec ~trans ~count_initial_change

let to_graph t = Lazy.force t.graph

let initial_for_counting t = if t.count_initial_change then Some t.initial else None

let path_cost t path = Staged_dag.path_cost (to_graph t) path

let path_changes t path =
  Staged_dag.path_changes (to_graph t) ~initial:(initial_for_counting t) path

let restrict t ids =
  let with_initial = if List.mem t.initial ids then ids else t.initial :: ids in
  let sub_space, mapping = Config_space.restrict t.space with_initial in
  let n = Array.length mapping in
  let exec =
    Array.map (fun row -> Array.init n (fun j -> row.(mapping.(j)))) t.exec
  in
  let trans =
    Array.init n (fun i -> Array.init n (fun j -> t.trans.(mapping.(i)).(mapping.(j))))
  in
  let initial =
    let rec find i = if mapping.(i) = t.initial then i else find (i + 1) in
    find 0
  in
  ( make_t ~steps:t.steps ~space:sub_space ~initial ~exec ~trans
      ~count_initial_change:t.count_initial_change,
    mapping )
