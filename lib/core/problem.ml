module Ast = Cddpd_sql.Ast
module Cost_model = Cddpd_engine.Cost_model
module Cost_cache = Cddpd_engine.Cost_cache
module Cost_key = Cddpd_engine.Cost_key
module Table_stats = Cddpd_engine.Table_stats
module Design = Cddpd_catalog.Design
module Structure = Cddpd_catalog.Structure
module Plan = Cddpd_engine.Plan
module Staged_dag = Cddpd_graph.Staged_dag
module Parallel = Cddpd_util.Parallel
module Compress = Cddpd_workload.Compress
module Obs = Cddpd_obs

let m_builds = Obs.Registry.counter "problem.builds"
let m_domains_used = Obs.Registry.counter "problem.build.domains_used"
let m_clusters = Obs.Registry.counter "workload.clusters"
let m_trans_memoized = Obs.Registry.counter "problem.trans_builds_memoized"
let m_reopt_exec_reused = Obs.Registry.counter "reopt.exec_columns_reused"
let m_reopt_clusters_recosted = Obs.Registry.counter "reopt.clusters_recosted"
let m_reopt_trans_reused = Obs.Registry.counter "reopt.trans_blocks_reused"
let m_reopt_invalidations = Obs.Registry.counter "reopt.stats_invalidations"

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

(* Below this many composed EXEC cells (clusters x configurations) the
   fill is not worth fork/join overhead and runs on the calling domain. *)
let sequential_threshold = 2048

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0

(* -- incremental re-optimization state ---------------------------------------- *)

(* One cluster's atoms ({!Cost_model.atom}), carried from build to build of
   a session.  [access] and [maintenance] are indexed by session structure
   id; [nan] marks a structure not yet evaluated for this cluster (a real
   access cost is finite or [infinity], never [nan]).  Keys are exact cost
   identities — equal cluster and structure keys under unchanged
   statistics imply equal atoms — so a stored atom is the bit-identical
   float a fresh evaluation would produce. *)
type atom_row = {
  bound : Cost_model.bound;  (** the cluster's representative, bound once *)
  base : float;  (** {!Cost_model.base_plan}'s cost *)
  mutable access : float array;
  mutable maintenance : float array;
}

(* What one build leaves behind for the next: the atom rows of its
   clusters (each with every atom the session has evaluated for it), the
   TRANS matrix keyed by design key, and the statistics fingerprints
   everything was computed under. *)
type reuse_summary = {
  s_rows : (string, atom_row) Hashtbl.t;  (** cluster cost identity -> atoms *)
  s_id_of_design : (string, int) Hashtbl.t;  (** design key -> previous config id *)
  s_trans : float array array;
  s_fingerprints : (string, string) Hashtbl.t;  (** table -> stats fingerprint *)
}

module Reuse = struct
  type tallies = {
    builds : int;
    exec_columns_reused : int;
    clusters_recosted : int;
    trans_blocks_reused : int;
    stats_invalidations : int;
  }

  type t = {
    cache : Cost_cache.t;  (** TRANS structure-build memo only *)
    structure_ids : (string, int) Hashtbl.t;
        (** structure cost identity -> session id, the atom rows' index *)
    mutable summary : reuse_summary option;
    mutable t_builds : int;
    mutable t_exec_columns_reused : int;
    mutable t_clusters_recosted : int;
    mutable t_trans_blocks_reused : int;
    mutable t_stats_invalidations : int;
  }

  let create () =
    {
      cache = Cost_cache.create ();
      structure_ids = Hashtbl.create 32;
      summary = None;
      t_builds = 0;
      t_exec_columns_reused = 0;
      t_clusters_recosted = 0;
      t_trans_blocks_reused = 0;
      t_stats_invalidations = 0;
    }

  let flush t =
    t.summary <- None;
    Cost_cache.invalidate_builds t.cache

  let tallies t =
    {
      builds = t.t_builds;
      exec_columns_reused = t.t_exec_columns_reused;
      clusters_recosted = t.t_clusters_recosted;
      trans_blocks_reused = t.t_trans_blocks_reused;
      stats_invalidations = t.t_stats_invalidations;
    }

  let cache_stats t = Cost_cache.stats t.cache
end

(* -- build stages --------------------------------------------------------------- *)

(* Snapshot statistics on the calling domain: a Database-backed [stats_of]
   computes stats lazily (mutating the database) and must not be called
   from worker domains.  Every table the build can touch is resolved here;
   the stages below read the snapshot. *)
let snapshot_stats stats_of steps designs =
  let stats_tbl = Hashtbl.create 8 in
  let resolve table =
    if not (Hashtbl.mem stats_tbl table) then Hashtbl.replace stats_tbl table (stats_of table)
  in
  Array.iter (fun step -> Array.iter (fun s -> resolve (Ast.table_of s)) step) steps;
  Array.iter
    (fun design -> Design.fold (fun s () -> resolve (Structure.table s)) design ())
    designs;
  stats_tbl

(* Stale-statistics gate: a session summary (and the persistent build
   memo, whose keys do not embed statistics) is only trusted while every
   table it was computed under still fingerprints the same.  Any mismatch
   flushes the session.  Returns the summary this build may copy from. *)
let trusted_summary (reuse : Reuse.t) stats_tbl =
  match reuse.Reuse.summary with
  | None -> None
  | Some s ->
      (* Keyed lookups under an order-insensitive [exists]. *)
      let stale =
        Seq.exists
          (fun (table, stats) ->
            match Hashtbl.find_opt s.s_fingerprints table with
            | Some recorded -> not (String.equal recorded (Table_stats.fingerprint stats))
            | None -> false)
          (Hashtbl.to_seq stats_tbl)
      in
      if stale then begin
        Reuse.flush reuse;
        reuse.Reuse.t_stats_invalidations <- reuse.Reuse.t_stats_invalidations + 1;
        Obs.Counter.incr m_reopt_invalidations;
        None
      end
      else Some s

(* Stage 1, key: every statement's {!Cost_key} cost identity under the
   snapshot statistics, unless the caller already paid for them. *)
let key_statements stats_of statement_keys flat =
  match statement_keys with
  | Some keys ->
      if Array.length keys <> Array.length flat then
        invalid_arg "Problem.build: statement_keys length mismatch";
      keys
  | None -> Array.map (fun s -> Cost_key.statement (stats_of (Ast.table_of s)) s) flat

(* Stage 2, cluster: statements with equal keys have equal cost under every
   design, so each configuration composes one cost per cluster instead of
   per statement. *)
type clusters = {
  keys : string array;  (** cluster id -> cost identity *)
  reps : Ast.statement array;  (** cluster id -> representative statement *)
  of_step : int array array;  (** cluster id of each statement, step by step *)
}

let cluster steps flat keys =
  let clustering = Compress.cluster_keys keys in
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

(* Stage 3, fill: every cluster's atom for every universe structure, then
   every configuration's cluster costs composed from them.  A cluster
   whose cost identity the previous build also had keeps its row, and
   with it every atom the session already evaluated; only the missing
   (cluster, structure) pairs reach the cost model, on the calling domain,
   so the [cost_model.calls] count does not depend on [jobs].  Composing
   a cell folds the design's atoms exactly as {!Cost_model.bound_cost}
   does — strict [<] from the base cost, maintenance summed in member
   order — so it is the same float; the compose loops run across [jobs]
   domains.  Returns the rows (for the session summary) and one cost array
   per configuration. *)
let fill_columns ~params ~stats_of ?jobs (reuse : Reuse.t) prev universe clusters =
  let n_configs = Array.length universe.members in
  let n_clusters = Array.length clusters.reps in
  let structure_ids = reuse.Reuse.structure_ids in
  let sid =
    Array.map
      (fun key ->
        match Hashtbl.find_opt structure_ids key with
        | Some id -> id
        | None ->
            let id = Hashtbl.length structure_ids in
            Hashtbl.replace structure_ids key id;
            id)
      universe.structure_keys
  in
  let n_ids = Hashtbl.length structure_ids in
  let grow a = Array.append a (Array.make (n_ids - Array.length a) Float.nan) in
  let recosted = ref 0 in
  let fresh = Array.make (Array.length sid) false in
  let rows =
    Array.mapi
      (fun r key ->
        let row =
          match Option.bind prev (fun s -> Hashtbl.find_opt s.s_rows key) with
          | Some row -> row
          | None ->
              incr recosted;
              let rep = clusters.reps.(r) in
              let bound = Cost_model.bind (stats_of (Ast.table_of rep)) rep in
              let base = (Cost_model.base_plan params bound).Plan.estimated_cost in
              { bound; base; access = [||]; maintenance = [||] }
        in
        if Array.length row.access < n_ids then begin
          row.access <- grow row.access;
          row.maintenance <- grow row.maintenance
        end;
        Array.iteri
          (fun u id ->
            if Float.is_nan row.access.(id) then begin
              let atom = Cost_model.atom params row.bound universe.structures.(u) in
              row.access.(id) <- Cost_model.access_cost atom;
              row.maintenance.(id) <- atom.Cost_model.maintenance;
              fresh.(u) <- true
            end)
          sid;
        row)
      clusters.keys
  in
  reuse.Reuse.t_clusters_recosted <- reuse.Reuse.t_clusters_recosted + !recosted;
  Obs.Counter.add m_reopt_clusters_recosted !recosted;
  (* A column is reused when every atom it composes was already known. *)
  if Option.is_some prev && !recosted = 0 then begin
    let reused =
      Array.fold_left
        (fun acc members -> if Array.exists (fun u -> fresh.(u)) members then acc else acc + 1)
        0 universe.members
    in
    reuse.Reuse.t_exec_columns_reused <- reuse.Reuse.t_exec_columns_reused + reused;
    Obs.Counter.add m_reopt_exec_reused reused
  end;
  let member_ids = Array.map (Array.map (fun u -> sid.(u))) universe.members in
  let writes = Array.map (fun rep -> not (Ast.is_read_only rep)) clusters.reps in
  let jobs =
    if n_clusters * n_configs < sequential_threshold then 1
    else Parallel.resolve_jobs ?jobs ~n:n_configs ()
  in
  Obs.Counter.add m_domains_used jobs;
  let columns = Array.make n_configs [||] in
  Parallel.map_chunks ~jobs ~n:n_configs (fun ~lo ~hi ->
      for c = lo to hi - 1 do
        let ids = member_ids.(c) in
        let costs = Array.make n_clusters 0.0 in
        for r = 0 to n_clusters - 1 do
          let row = rows.(r) in
          let best = ref row.base in
          let maintenance = ref 0.0 in
          for m = 0 to Array.length ids - 1 do
            let access = row.access.(ids.(m)) in
            if access < !best then best := access;
            if writes.(r) then maintenance := !maintenance +. row.maintenance.(ids.(m))
          done;
          costs.(r) <- Cost_model.compose params row.bound ~access:!best ~maintenance:!maintenance
        done;
        columns.(c) <- costs
      done)
  |> ignore;
  (rows, columns)

(* Stage 4, expand: sum each step's cluster costs in the original statement
   order — the floats the naive per-statement fold adds, in the same order,
   so every cell is bit-identical to it. *)
let expand clusters columns =
  Array.map
    (fun ids ->
      Array.map
        (fun costs ->
          let acc = ref 0.0 in
          for q = 0 to Array.length ids - 1 do
            acc := !acc +. costs.(ids.(q))
          done;
          !acc)
        columns)
    clusters.of_step

(* Stage 5, TRANS: designs become bitmasks over the structure universe and
   every structure's build cost is computed once up front (through the
   session's build memo), so the n_configs^2 pairs only pay word-level
   set arithmetic — with a per-domain memo on the added-structure mask, a
   pair whose build set was already summed costs a single lookup.  Mask
   bits are visited in ascending universe order, which is exactly
   [Design.fold]'s sorted order over the diff, so each entry is the
   bit-identical float [Cost_model.transition_cost] computes.  Pairs of
   configurations that both existed in the previous build (matched by
   design key, statistics unchanged) copy their entry verbatim. *)
let fill_trans ~params ~stats_of ?jobs (reuse : Reuse.t) prev universe ~design_keys =
  let n_configs = Array.length universe.members in
  let n_structures = Array.length universe.structures in
  let build_cost =
    Array.map
      (fun s ->
        Cost_cache.structure_build_cost reuse.Reuse.cache params
          (stats_of (Structure.table s))
          s)
      universe.structures
  in
  let words = max 1 ((n_structures + 62) / 63) in
  let mask_of members =
    let mask = Array.make words 0 in
    Array.iter (fun i -> mask.(i / 63) <- mask.(i / 63) lor (1 lsl (i mod 63))) members;
    mask
  in
  let masks = Array.map mask_of universe.members in
  let prev_of =
    Array.map
      (fun dk ->
        match Option.bind prev (fun s -> Hashtbl.find_opt s.s_id_of_design dk) with
        | Some id -> id
        | None -> -1)
      design_keys
  in
  let prev_trans = match prev with Some s -> s.s_trans | None -> [||] in
  let trans = Array.make_matrix n_configs n_configs 0.0 in
  let chunk_tallies =
    Parallel.map_chunks ?jobs ~min_per_domain:8 ~n:n_configs (fun ~lo ~hi ->
        let memo = Hashtbl.create 256 in
        let hits = ref 0 in
        let copied = ref 0 in
        let key_buf = Buffer.create (words * 12) in
        let added = Array.make words 0 in
        for i = lo to hi - 1 do
          let from_mask = masks.(i) in
          let row = trans.(i) in
          let pi = prev_of.(i) in
          for j = 0 to n_configs - 1 do
            if i <> j then begin
              if pi >= 0 && prev_of.(j) >= 0 then begin
                row.(j) <- prev_trans.(pi).(prev_of.(j));
                incr copied
              end
              else begin
                let to_mask = masks.(j) in
                let removed = ref 0 in
                Buffer.clear key_buf;
                for w = 0 to words - 1 do
                  let a = to_mask.(w) land lnot from_mask.(w) in
                  added.(w) <- a;
                  removed := !removed + popcount (from_mask.(w) land lnot to_mask.(w));
                  Buffer.add_string key_buf (string_of_int a);
                  Buffer.add_char key_buf ','
                done;
                let key = Buffer.contents key_buf in
                let build_sum =
                  match Hashtbl.find_opt memo key with
                  | Some v ->
                      incr hits;
                      v
                  | None ->
                      let acc = ref 0.0 in
                      for w = 0 to words - 1 do
                        let bits = ref added.(w) in
                        let bit = ref (w * 63) in
                        while !bits <> 0 do
                          if !bits land 1 = 1 then acc := !acc +. build_cost.(!bit);
                          bits := !bits lsr 1;
                          incr bit
                        done
                      done;
                      Hashtbl.replace memo key !acc;
                      !acc
                in
                row.(j) <- build_sum +. (params.Cost_model.drop_cost *. float_of_int !removed)
              end
            end
          done
        done;
        (!hits, !copied))
  in
  List.iter (fun (hits, _) -> Obs.Counter.add m_trans_memoized hits) chunk_tallies;
  let copied = List.fold_left (fun acc (_, c) -> acc + c) 0 chunk_tallies in
  reuse.Reuse.t_trans_blocks_reused <- reuse.Reuse.t_trans_blocks_reused + copied;
  Obs.Counter.add m_reopt_trans_reused copied;
  trans

(* Stage 6, summary: hand the completed state to the session, so the next
   build reuses this one's atom rows and TRANS entries as long as keys
   match and the statistics fingerprints still hold.  Rows of clusters
   this build did not see are dropped, which bounds the session by the
   workload it is currently costing. *)
let record_summary (reuse : Reuse.t) ~stats_tbl ~design_keys clusters rows trans =
  let s_rows = Hashtbl.create (max 16 (Array.length clusters.keys)) in
  Array.iteri (fun r k -> Hashtbl.replace s_rows k rows.(r)) clusters.keys;
  let s_id_of_design = Hashtbl.create (max 16 (Array.length design_keys)) in
  Array.iteri (fun c dk -> Hashtbl.replace s_id_of_design dk c) design_keys;
  let s_fingerprints = Hashtbl.create 8 in
  (* Keyed copy into a fresh table: each key is visited once. *)
  Seq.iter
    (fun (t, stats) -> Hashtbl.replace s_fingerprints t (Table_stats.fingerprint stats))
    (Hashtbl.to_seq stats_tbl);
  reuse.Reuse.summary <- Some { s_rows; s_id_of_design; s_trans = trans; s_fingerprints };
  reuse.Reuse.t_builds <- reuse.Reuse.t_builds + 1

let build ~params ~stats_of ~steps ~space ~initial ?(count_initial_change = false) ?jobs
    ?(reuse = Reuse.create ()) ?statement_keys () =
  if Array.length steps = 0 then invalid_arg "Problem.build: no steps";
  Obs.Span.with_span "problem.build" @@ fun () ->
  Obs.Counter.incr m_builds;
  let initial_id = Config_space.id_of_exn space initial in
  let n_configs = Config_space.size space in
  let designs = Array.init n_configs (Config_space.design space) in
  let design_keys = Array.map Cost_key.design designs in
  let stats_tbl = snapshot_stats stats_of steps designs in
  let stats_of table = Hashtbl.find stats_tbl table in
  let prev = trusted_summary reuse stats_tbl in
  let flat = Array.concat (Array.to_list steps) in
  let universe = universe_of designs in
  let clusters, rows, exec =
    Obs.Span.with_span "problem.build.exec" @@ fun () ->
    let keys =
      Obs.Span.with_span "problem.build.key" (fun () ->
          key_statements stats_of statement_keys flat)
    in
    let clusters =
      Obs.Span.with_span "problem.build.cluster" (fun () -> cluster steps flat keys)
    in
    let rows, columns =
      Obs.Span.with_span "problem.build.fill" (fun () ->
          fill_columns ~params ~stats_of ?jobs reuse prev universe clusters)
    in
    (clusters, rows, Obs.Span.with_span "problem.build.expand" (fun () -> expand clusters columns))
  in
  let trans =
    Obs.Span.with_span "problem.build.trans" @@ fun () ->
    fill_trans ~params ~stats_of ?jobs reuse prev universe ~design_keys
  in
  record_summary reuse ~stats_tbl ~design_keys clusters rows trans;
  Cost_cache.publish_obs reuse.Reuse.cache;
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
