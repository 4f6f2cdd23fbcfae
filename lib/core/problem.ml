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

(* One step as a build costed it, kept for the next build: the caller's
   statement array, the step's tables in order of first appearance, its
   cost keys, its clusters (the distinct keys with a representative each,
   and each statement's cluster) and its EXEC row.  Tables and clusters
   are functions of the keys, so a later step with this very array and
   equal keys reuses the tables, and a kept one the clusters too. *)
type step = {
  statements : Ast.statement array;
  tables : string list;
  keys : Cost_key.id array;
  clusters : Cost_cache.clusters;
  cluster_of : int array;
  exec : float array;
}

(* What a session's latest build computed, kept for the next build: the
   space's designs, their tables and the statistics snapshot it ran
   under, its structure universe and TRANS, and its steps.  The next
   build reuses TRANS and EXEC rows only under the same space and
   physically the same snapshot (see [build]). *)
type previous = {
  designs : Design.t array;
  design_tables : string list;
  snapshot : (string * Table_stats.t) list;
  universe : universe;
  trans : float array array;
  steps : step array;
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

(* A step's tables, each once, in order of first appearance.  Statements
   come in runs on one table, so the table is compared once per run. *)
let step_tables step =
  let tables = ref [] and last = ref None in
  Array.iter
    (fun s ->
      let table = Ast.table_of s in
      match !last with
      | Some run when run == table || String.equal run table -> ()
      | Some _ | None ->
          if not (List.exists (String.equal table) !tables) then tables := table :: !tables;
          last := Some table)
    step;
  List.rev !tables

let design_tables designs =
  let tables = ref [] in
  Array.iter
    (fun design ->
      Design.fold
        (fun s () ->
          let table = Structure.table s in
          if not (List.exists (String.equal table) !tables) then tables := table :: !tables)
        design ())
    designs;
  List.rev !tables

(* Snapshot statistics once: a Database-backed [stats_of] computes stats
   lazily (mutating the database), so every table the build can touch is
   resolved here, steps' tables first and in order, and the stages below
   read the snapshot.  Also returns each table with its statistics, in
   the order they were resolved. *)
let snapshot_stats (stats_of : string -> Table_stats.t) step_tables design_tables =
  let stats_tbl = Hashtbl.create 8 in
  let tables = ref [] in
  let resolve table =
    if not (Hashtbl.mem stats_tbl table) then begin
      let stats = stats_of table in
      Hashtbl.replace stats_tbl table stats;
      tables := (table, stats) :: !tables
    end
  in
  Array.iter (List.iter resolve) step_tables;
  List.iter resolve design_tables;
  (stats_tbl, List.rev !tables)

(* The caller's keys for the concatenated steps, cut into one array per
   step. *)
let split_keys steps keys =
  if Array.length keys <> Array.fold_left (fun n step -> n + Array.length step) 0 steps then
    invalid_arg "Problem.build: statement_keys length mismatch";
  let pos = ref 0 in
  Array.map
    (fun step ->
      let slice = Array.sub keys !pos (Array.length step) in
      pos := !pos + Array.length step;
      slice)
    steps

(* Each step's previous counterpart: a previous step with this very
   statement array and equal cost keys, whose tables, clusters and, under
   a comparable build, EXEC row are this step's.  Each previous step is
   [taken] by at most one step, which has then [claimed] it, so that a
   step listed twice holds two references to its memo rows; a second
   copy still [carried] its counterpart. *)
type matching = { carried : step option array; claimed : bool array; taken : bool array }

let match_steps previous steps step_keys =
  let taken = Array.make (Array.length previous) false in
  let claimed = Array.make (Array.length steps) false in
  let carried =
    Array.mapi
      (fun s step ->
        let same j =
          previous.(j).statements == step
          && Array.for_all2 Cost_key.id_equal previous.(j).keys step_keys.(s)
        in
        let matches = List.filter same (List.init (Array.length previous) Fun.id) in
        match List.find_opt (fun j -> not taken.(j)) matches with
        | Some j ->
            taken.(j) <- true;
            claimed.(s) <- true;
            Some previous.(j)
        | None -> Option.map (fun j -> previous.(j)) (List.nth_opt matches 0))
      steps
  in
  { carried; claimed; taken }

(* Stage 2, cluster: statements with equal keys have equal cost under every
   design, so each configuration composes one cost per cluster instead of
   per statement.  Clusters are step-local, so a kept step keeps the
   clusters it carried.  The arriving steps are clustered together, so
   each of their keys is hashed once, and each step's clusters (in
   first-appearance order, each represented by its first statement) are
   read off the joint ones.  Returns every step's clusters and cluster
   per statement, the arriving steps' distinct clusters, and each
   arriving step's clusters as positions in those. *)
let cluster_steps steps step_keys carried arriving =
  let flat_keys = Array.concat (Array.to_list (Array.map (fun s -> step_keys.(s)) arriving)) in
  let joint = Compress.cluster_by ~hash:Cost_key.id_hash ~equal:Cost_key.id_equal flat_keys in
  let first = joint.Compress.representatives in
  let joint_reps = Array.make (Array.length first) None in
  let clusters = Array.map (Option.map (fun p -> (p.clusters, p.cluster_of))) carried in
  let references = Array.make (Array.length steps) [||] in
  let local_of = Array.make (Array.length first) (-1) and pos = ref 0 in
  Array.iter
    (fun s ->
      let step = steps.(s) and keys = step_keys.(s) and offset = !pos in
      let n = Array.length step in
      let cluster_of = Array.make n 0 in
      let joints = Array.make n 0 and firsts = Array.make n 0 and n_local = ref 0 in
      for q = 0 to n - 1 do
        let j = joint.Compress.cluster_of.(offset + q) in
        let l = local_of.(j) in
        if l >= 0 then cluster_of.(q) <- l
        else begin
          let l = !n_local in
          local_of.(j) <- l;
          joints.(l) <- j;
          firsts.(l) <- q;
          cluster_of.(q) <- l;
          if Option.is_none joint_reps.(j) then joint_reps.(j) <- Some step.(q);
          incr n_local
        end
      done;
      pos := offset + n;
      let joints = Array.sub joints 0 !n_local and firsts = Array.sub firsts 0 !n_local in
      Array.iter (fun j -> local_of.(j) <- -1) joints;
      clusters.(s) <-
        Some
          ( {
              Cost_cache.keys = Array.map (fun q -> keys.(q)) firsts;
              reps = Array.map (fun q -> step.(q)) firsts;
            },
            cluster_of );
      references.(s) <- joints)
    arriving;
  ( Array.map Option.get clusters,
    {
      Cost_cache.keys = Array.map (fun i -> flat_keys.(i)) first;
      reps = Array.map Option.get joint_reps;
    },
    references )

(* Stage 3, compose: a memo row's cost under every configuration, folded
   from the row's atoms exactly as {!Cost_model.bound_cost} does — strict
   [<] from the base cost, maintenance summed in member order — so each is
   the same float.  [member_ids] lists each configuration's structures
   by session id. *)
let compose_row ~params member_ids (row : Cost_cache.row) ~write =
  let costs = Array.make (Array.length member_ids) 0.0 in
  for c = 0 to Array.length member_ids - 1 do
    let ids = member_ids.(c) in
    let best = ref row.Cost_cache.base in
    let maintenance = ref 0.0 in
    for m = 0 to Array.length ids - 1 do
      let access = row.Cost_cache.access.(ids.(m)) in
      if access < !best then best := access;
      if write then maintenance := !maintenance +. row.Cost_cache.maintenance.(ids.(m))
    done;
    costs.(c) <- Cost_model.compose params row.Cost_cache.bound ~access:!best ~maintenance:!maintenance
  done;
  costs

(* Stage 4, expand: sum a step's cluster costs in the original statement
   order — the floats the naive per-statement fold adds, in the same order,
   so every cell is bit-identical to it.  [index] maps the step's clusters
   to their rows in [rows]. *)
let expand_step rows index cluster_of ~n_configs =
  let costs = Array.map (fun k -> rows.(index.(k)).Cost_cache.composed) cluster_of in
  Array.init n_configs (fun c ->
      let acc = ref 0.0 in
      for q = 0 to Array.length costs - 1 do
        acc := !acc +. costs.(q).(c)
      done;
      !acc)

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

(* The previous build's space is this build's when it has the same designs
   in the same order: the universe and the designs' tables depend on
   nothing else. *)
let same_designs (p : previous) designs =
  Array.length p.designs = Array.length designs
  && Array.for_all2 (fun a b -> a == b || Design.equal a b) p.designs designs

(* Every table's statistics are physically the previous snapshot's: with
   the same space, TRANS and every memo atom are then the previous
   build's. *)
let same_snapshot (p : previous) snapshot =
  List.length p.snapshot = Hashtbl.length snapshot
  && List.for_all
       (fun (table, was) ->
         match Hashtbl.find_opt snapshot table with Some now -> now == was | None -> false)
       p.snapshot

let build ~params ~stats_of ~steps ~space ~initial ?(count_initial_change = false)
    ?(reuse = Reuse.create ()) ?statement_keys () =
  if Array.length steps = 0 then invalid_arg "Problem.build: no steps";
  Obs.Span.with_span "problem.build" @@ fun () ->
  Obs.Counter.incr m_builds;
  let initial_id = Config_space.id_of_exn space initial in
  let designs = Array.init (Config_space.size space) (Config_space.design space) in
  let same_space =
    match reuse.Reuse.previous with Some p -> same_designs p designs | None -> false
  in
  let previous_steps = match reuse.Reuse.previous with Some p -> p.steps | None -> [||] in
  (* Keys the caller passed identify the previous steps before the
     snapshot, so those steps' tables are not scanned again. *)
  let early =
    Option.map
      (fun keys ->
        let keys = split_keys steps keys in
        (keys, match_steps previous_steps steps keys))
      statement_keys
  in
  let step_tables, design_tables, (snapshot, tables) =
    Obs.Span.with_span "problem.build.snapshot" @@ fun () ->
    let step_tables =
      Array.mapi
        (fun s step ->
          match Option.bind early (fun (_, { carried; _ }) -> carried.(s)) with
          | Some p -> p.tables
          | None -> step_tables step)
        steps
    in
    let design_tables =
      match reuse.Reuse.previous with
      | Some p when same_space -> p.design_tables
      | Some _ | None -> design_tables designs
    in
    (step_tables, design_tables, snapshot_stats stats_of step_tables design_tables)
  in
  let stats_of table = Hashtbl.find snapshot table in
  let previous =
    match reuse.Reuse.previous with
    | Some p when same_space -> Some (p, same_snapshot p snapshot)
    | Some _ | None -> None
  in
  let comparable = match previous with Some (_, same) -> same | None -> false in
  let universe = match previous with Some (p, _) -> p.universe | None -> universe_of designs in
  let carried_steps, exec =
    Obs.Span.with_span "problem.build.exec" @@ fun () ->
    let step_keys, { carried; claimed; taken } =
      match early with
      | Some early -> early
      | None ->
          let keys =
            Obs.Span.with_span "problem.build.key" (fun () ->
                Array.map
                  (Array.map (fun s -> Cost_key.id (Cost_key.statement (stats_of (Ast.table_of s)) s)))
                  steps)
          in
          (keys, match_steps previous_steps steps keys)
    in
    (* Under a comparable build a claimed step keeps its memo references
       and, with every other step that has a previous counterpart, its
       EXEC row; otherwise every step arrives and every previous step
       departs. *)
    let kept_exec =
      Array.map (fun c -> if comparable then Option.map (fun p -> p.exec) c else None) carried
    in
    let arriving =
      List.filter (fun s -> not (comparable && claimed.(s))) (List.init (Array.length steps) Fun.id)
      |> Array.of_list
    in
    let departing =
      List.filteri (fun j _ -> not (comparable && taken.(j))) (Array.to_list previous_steps)
      |> List.map (fun p -> p.clusters.Cost_cache.keys)
      |> Array.of_list
    in
    let clusters, arriving_clusters, references =
      Obs.Span.with_span "problem.build.cluster" (fun () ->
          cluster_steps steps step_keys carried arriving)
    in
    Obs.Counter.add m_steps_reused
      (Array.fold_left (fun n row -> if Option.is_some row then n + 1 else n) 0 kept_exec);
    let rows =
      Obs.Span.with_span "problem.build.fill" @@ fun () ->
      let { Cost_cache.rows; ids; recosted; fresh; live } =
        Obs.Span.with_span "problem.build.lookup" (fun () ->
            Cost_cache.lookup reuse.Reuse.memo params ~snapshot ~structures:universe.structures
              ~structure_keys:universe.structure_keys ~arriving:arriving_clusters
              ~references:(Array.map (fun s -> references.(s)) arriving)
              ~departing)
      in
      Obs.Counter.add m_clusters live;
      reuse.Reuse.t_clusters_recosted <- reuse.Reuse.t_clusters_recosted + recosted;
      Obs.Counter.add m_reopt_clusters_recosted recosted;
      (* A column is reused when every atom it composes was already known. *)
      if recosted = 0 && live > 0 then begin
        let reused =
          Array.fold_left
            (fun acc members -> if Array.exists (fun u -> fresh.(u)) members then acc else acc + 1)
            0 universe.members
        in
        reuse.Reuse.t_exec_columns_reused <- reuse.Reuse.t_exec_columns_reused + reused;
        Obs.Counter.add m_reopt_exec_reused reused
      end;
      (* Only the rows of arriving steps without an EXEC row are composed,
         each once.  A comparable build keeps the costs a row was composed
         to before: its atoms and the configurations are the same. *)
      let member_ids = Array.map (Array.map (fun u -> ids.(u))) universe.members in
      let composed = Array.make (Array.length rows) false in
      Obs.Span.with_span "problem.build.compose" (fun () ->
          Array.iter
            (fun s ->
              if Option.is_none kept_exec.(s) then begin
                let { Cost_cache.reps; _ }, _ = clusters.(s) in
                Array.iteri
                  (fun k r ->
                    let row = rows.(r) in
                    if not composed.(r) then begin
                      composed.(r) <- true;
                      if (not comparable) || Array.length row.Cost_cache.composed = 0 then
                        Cost_cache.set_composed row
                          (compose_row ~params member_ids row
                             ~write:(not (Ast.is_read_only reps.(k))))
                    end)
                  references.(s)
              end)
            arriving);
      rows
    in
    (* A step without an EXEC row arrived, so its clusters have rows. *)
    let exec =
      Obs.Span.with_span "problem.build.expand" (fun () ->
          Array.mapi
            (fun s _ ->
              match kept_exec.(s) with
              | Some row -> row
              | None ->
                  expand_step rows references.(s) (snd clusters.(s))
                    ~n_configs:(Array.length designs))
            steps)
    in
    let carried_steps =
      Array.mapi
        (fun s statements ->
          let clusters, cluster_of = clusters.(s) in
          {
            statements;
            tables = step_tables.(s);
            keys = step_keys.(s);
            clusters;
            cluster_of;
            exec = exec.(s);
          })
        steps
    in
    (carried_steps, exec)
  in
  let trans =
    Obs.Span.with_span "problem.build.trans" @@ fun () ->
    match previous with
    | Some (p, true) -> p.trans
    | Some (_, false) | None -> fill_trans ~params ~snapshot universe
  in
  reuse.Reuse.previous <-
    Some { designs; design_tables; snapshot = tables; universe; trans; steps = carried_steps };
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
