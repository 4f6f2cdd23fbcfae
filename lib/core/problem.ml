module Ast = Cddpd_sql.Ast
module Cost_model = Cddpd_engine.Cost_model
module Cost_cache = Cddpd_engine.Cost_cache
module Cost_key = Cddpd_engine.Cost_key
module Table_stats = Cddpd_engine.Table_stats
module Design = Cddpd_catalog.Design
module Structure = Cddpd_catalog.Structure
module Index_def = Cddpd_catalog.Index_def
module View_def = Cddpd_catalog.View_def
module Staged_dag = Cddpd_graph.Staged_dag
module Parallel = Cddpd_util.Parallel
module Compress = Cddpd_workload.Compress
module Obs = Cddpd_obs

let m_builds = Obs.Registry.counter "problem.builds"
let m_domains_used = Obs.Registry.counter "problem.build.domains_used"
let m_clusters = Obs.Registry.counter "workload.clusters"
let m_exec_skipped = Obs.Registry.counter "problem.exec_columns_skipped"
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

(* Below this many EXEC evaluations the build is not worth fork/join
   overhead and runs sequentially on the calling domain. *)
let sequential_threshold = 2048

(* -- structure relevance ------------------------------------------------------ *)

(* Which structures can influence any statement's what-if cost.  Two
   configurations whose designs agree on their relevant subsets have
   bit-identical EXEC columns, so one column fill serves both (the
   [problem.exec_columns_skipped] optimization).  The rules mirror the
   cost model exactly: DML pays maintenance for every structure on its
   table; a SELECT reads an index only through a seek (sargable leading
   column) or an index-only scan (key covers the referenced columns); an
   aggregate reads a view only when the group columns match. *)
module String_set = Set.Make (String)

type table_relevance = {
  mutable dml : bool;
  mutable predicate_columns : String_set.t;
  mutable covered_sets : string list list;  (** sorted referenced-column sets *)
  mutable group_columns : String_set.t;
}

let relevance_summary steps =
  let tables = Hashtbl.create 8 in
  let info table =
    match Hashtbl.find_opt tables table with
    | Some info -> info
    | None ->
        let info =
          {
            dml = false;
            predicate_columns = String_set.empty;
            covered_sets = [];
            group_columns = String_set.empty;
          }
        in
        Hashtbl.replace tables table info;
        info
  in
  let predicate_column pred =
    match pred with Ast.Cmp { column; _ } | Ast.Between { column; _ } -> column
  in
  let note statement =
    match statement with
    | Ast.Insert { table; _ } -> (info table).dml <- true
    | Ast.Delete { table; _ } | Ast.Update { table; _ } -> (info table).dml <- true
    | Ast.Select_agg { table; group_by; _ } ->
        let info = info table in
        info.group_columns <- String_set.add group_by info.group_columns
    | Ast.Select { table; where; projection } ->
        let info = info table in
        List.iter
          (fun pred ->
            info.predicate_columns <-
              String_set.add (predicate_column pred) info.predicate_columns)
          where;
        (match projection with
        | Ast.Star -> ()
        | Ast.Columns _ ->
            let set =
              List.sort_uniq String.compare (Ast.referenced_columns statement)
            in
            if not (List.mem set info.covered_sets) then
              info.covered_sets <- set :: info.covered_sets)
  in
  Array.iter (fun step -> Array.iter note step) steps;
  tables

let structure_is_relevant tables structure =
  match Hashtbl.find_opt tables (Structure.table structure) with
  | None -> false
  | Some info -> (
      info.dml
      ||
      match structure with
      | Structure.View view -> String_set.mem (View_def.group_by view) info.group_columns
      | Structure.Index index ->
          let columns = Index_def.columns index in
          (match columns with
          | leading :: _ -> String_set.mem leading info.predicate_columns
          | [] -> false)
          || List.exists
               (fun set -> List.for_all (fun c -> List.mem c columns) set)
               info.covered_sets)

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0

(* -- incremental re-optimization state ---------------------------------------- *)

(* What one build leaves behind for the next: every exec cluster cost
   keyed by (design key, cluster key), the TRANS matrix keyed by design
   key, and the statistics fingerprints everything was computed under.
   Lookups are exact — {!Cost_key} keys are cost identities (equal keys
   imply equal cost), so a match proves the stored float is bit-identical
   to what a fresh computation would produce. *)
type reuse_summary = {
  s_cluster_id_of : (string, int) Hashtbl.t;
      (** cluster cost-identity key -> previous cluster id *)
  s_by_design : (string, float array) Hashtbl.t;
      (** design key -> per-previous-cluster exec costs *)
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
   design, so each configuration pays one what-if call per cluster instead
   of per statement. *)
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

(* Stage 3, relevant-column fill: every cluster's cost under every
   configuration, one cost array per configuration.  Configurations whose
   designs agree on the workload-relevant structures have bit-identical
   columns, so only the first of each class is filled and the rest share
   its array.  Equal keys imply equal relevance inputs (table, statement
   kind, columns read), so the representatives summarise the workload.
   A cell whose design and cluster both appeared in the previous build is
   copied from the summary; every other cell is a bound what-if call.
   Returns, per configuration, the first configuration of its class and
   its cost array. *)
let fill_columns ~params ~stats_of ~jobs (reuse : Reuse.t) prev ~designs ~design_keys
    clusters =
  let n_configs = Array.length designs in
  let n_clusters = Array.length clusters.reps in
  let relevance = relevance_summary [| clusters.reps |] in
  let relevant_key =
    let memo = Hashtbl.create 32 in
    fun structure ->
      let key = Cost_key.structure structure in
      match Hashtbl.find_opt memo key with
      | Some r -> r
      | None ->
          let r = structure_is_relevant relevance structure in
          Hashtbl.replace memo key r;
          r
  in
  let column_src = Array.make n_configs 0 in
  let fill_configs =
    let first_by_fingerprint = Hashtbl.create 64 in
    let out = ref [] in
    for c = 0 to n_configs - 1 do
      let relevant =
        Design.fold
          (fun s acc -> if relevant_key s then Design.add_structure s acc else acc)
          designs.(c) Design.empty
      in
      let fingerprint = Cost_key.design relevant in
      match Hashtbl.find_opt first_by_fingerprint fingerprint with
      | Some first -> column_src.(c) <- first
      | None ->
          Hashtbl.replace first_by_fingerprint fingerprint c;
          column_src.(c) <- c;
          out := c :: !out
    done;
    Array.of_list (List.rev !out)
  in
  Obs.Counter.add m_exec_skipped (n_configs - Array.length fill_configs);
  (* Delta against the previous build: each cluster's previous id (-1 when
     new) and each filled column's previous cluster costs. *)
  let prev_cluster =
    Array.map
      (fun k ->
        match Option.bind prev (fun s -> Hashtbl.find_opt s.s_cluster_id_of k) with
        | Some id -> id
        | None -> -1)
      clusters.keys
  in
  let prev_costs =
    Array.map
      (fun c -> Option.bind prev (fun s -> Hashtbl.find_opt s.s_by_design design_keys.(c)))
      fill_configs
  in
  let recosted = Array.fold_left (fun acc p -> if p < 0 then acc + 1 else acc) 0 prev_cluster in
  reuse.Reuse.t_clusters_recosted <- reuse.Reuse.t_clusters_recosted + recosted;
  Obs.Counter.add m_reopt_clusters_recosted recosted;
  if recosted = 0 then begin
    let reused = Array.fold_left (fun acc pc -> if Option.is_some pc then acc + 1 else acc) 0 prev_costs in
    reuse.Reuse.t_exec_columns_reused <- reuse.Reuse.t_exec_columns_reused + reused;
    Obs.Counter.add m_reopt_exec_reused reused
  end;
  (* Bind, on this domain, exactly the representatives some filled column
     recosts: their selectivities are computed once here.  Within one build
     each (cluster, relevance class) cell is unique, so no memo could hit;
     across builds the reuse summary is the memo. *)
  let every_column_known = Array.for_all Option.is_some prev_costs in
  let bound =
    Array.mapi
      (fun r rep ->
        if prev_cluster.(r) >= 0 && every_column_known then None
        else Some (Cost_model.bind (stats_of (Ast.table_of rep)) rep))
      clusters.reps
  in
  let columns = Array.make n_configs [||] in
  (* cddpd-lint: allow domain-race — workers read the bound statements and previous costs prepared above and write disjoint entries of columns; obs counter writes are main-domain gated by Switch.active *)
  Parallel.map_chunks ~jobs ~n:(Array.length fill_configs) (fun ~lo ~hi ->
      for t = lo to hi - 1 do
        let c = fill_configs.(t) in
        let design = designs.(c) in
        (* Filled in place: a copied cell then moves an unboxed float. *)
        let costs = Array.make n_clusters 0.0 in
        for r = 0 to n_clusters - 1 do
          costs.(r) <-
            (match (prev_costs.(t), bound.(r)) with
            | Some pc, _ when prev_cluster.(r) >= 0 -> pc.(prev_cluster.(r))
            | _, Some b -> Cost_model.bound_cost params b design
            | _, None -> assert false (* bound above: this cell is recosted *))
        done;
        columns.(c) <- costs
      done)
  |> ignore;
  Array.iteri (fun c src -> if src <> c then columns.(c) <- columns.(src)) column_src;
  (column_src, columns)

(* Stage 4, expand: sum each step's cluster costs in the original statement
   order — the floats the naive per-statement fold adds, in the same order,
   so every cell is bit-identical to it.  A shared column copies the cell
   of its class's first configuration, which has the lower index. *)
let expand clusters ~column_src columns =
  Array.map
    (fun ids ->
      let row = Array.make (Array.length columns) 0.0 in
      for c = 0 to Array.length columns - 1 do
        let src = column_src.(c) in
        if src <> c then row.(c) <- row.(src)
        else begin
          let costs = columns.(c) in
          let acc = ref 0.0 in
          for q = 0 to Array.length ids - 1 do
            acc := !acc +. costs.(ids.(q))
          done;
          row.(c) <- !acc
        end
      done;
      row)
    clusters.of_step

(* Stage 5, TRANS: designs become bitmasks over the sorted structure
   universe and every structure's build cost is computed once up front
   (through the session's build memo), so the n_configs^2 pairs only pay
   word-level set arithmetic — with a per-domain memo on the
   added-structure mask, a pair whose build set was already summed costs a
   single lookup.  Mask bits are visited in ascending universe order, which
   is exactly [Design.fold]'s sorted order over the diff, so each entry is
   the bit-identical float [Cost_model.transition_cost] computes.  Pairs
   of configurations that both existed in the previous build (matched by
   design key, statistics unchanged) copy their entry verbatim. *)
let fill_trans ~params ~stats_of ?jobs (reuse : Reuse.t) prev ~designs ~design_keys =
  let n_configs = Array.length designs in
  let universe =
    let seen = Hashtbl.create 32 in
    Array.iter
      (fun design ->
        Design.fold
          (fun s () ->
            let key = Cost_key.structure s in
            if not (Hashtbl.mem seen key) then Hashtbl.replace seen key s)
          design ())
      designs;
    (* cddpd-lint: allow determinism — fold collects members that are sorted by Structure.compare below *)
    let members = Hashtbl.fold (fun _ s acc -> s :: acc) seen [] in
    Array.of_list (List.sort Structure.compare members)
  in
  let n_structures = Array.length universe in
  let index_of = Hashtbl.create (max 16 n_structures) in
  Array.iteri (fun i s -> Hashtbl.replace index_of (Cost_key.structure s) i) universe;
  let build_cost =
    Array.map
      (fun s ->
        Cost_cache.structure_build_cost reuse.Reuse.cache params
          (stats_of (Structure.table s))
          s)
      universe
  in
  let words = max 1 ((n_structures + 62) / 63) in
  let mask_of design =
    let mask = Array.make words 0 in
    Design.fold
      (fun s () ->
        let i = Hashtbl.find index_of (Cost_key.structure s) in
        mask.(i / 63) <- mask.(i / 63) lor (1 lsl (i mod 63)))
      design ();
    mask
  in
  let masks = Array.map mask_of designs in
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
   build reuses this one's cluster costs and TRANS entries as long as keys
   match and the statistics fingerprints still hold.  A column copied from
   its relevance class shares the source's cost array — a valid (design,
   cluster) cost table because the classes were computed over exactly the
   statements these clusters represent. *)
let record_summary (reuse : Reuse.t) ~stats_tbl ~design_keys clusters columns trans =
  let s_cluster_id_of = Hashtbl.create (max 16 (Array.length clusters.keys)) in
  Array.iteri (fun id k -> Hashtbl.replace s_cluster_id_of k id) clusters.keys;
  let n_configs = Array.length design_keys in
  let s_by_design = Hashtbl.create (max 16 n_configs) in
  let s_id_of_design = Hashtbl.create (max 16 n_configs) in
  Array.iteri
    (fun c dk ->
      Hashtbl.replace s_by_design dk columns.(c);
      Hashtbl.replace s_id_of_design dk c)
    design_keys;
  let s_fingerprints = Hashtbl.create 8 in
  (* Keyed copy into a fresh table: each key is visited once. *)
  Seq.iter
    (fun (t, stats) -> Hashtbl.replace s_fingerprints t (Table_stats.fingerprint stats))
    (Hashtbl.to_seq stats_tbl);
  reuse.Reuse.summary <-
    Some { s_cluster_id_of; s_by_design; s_id_of_design; s_trans = trans; s_fingerprints };
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
  let exec_jobs =
    if Array.length flat * n_configs < sequential_threshold then 1
    else Parallel.resolve_jobs ?jobs ~n:n_configs ()
  in
  Obs.Counter.add m_domains_used exec_jobs;
  let clusters, columns, exec =
    Obs.Span.with_span "problem.build.exec" @@ fun () ->
    let clusters = cluster steps flat (key_statements stats_of statement_keys flat) in
    let column_src, columns =
      fill_columns ~params ~stats_of ~jobs:exec_jobs reuse prev ~designs ~design_keys
        clusters
    in
    (clusters, columns, expand clusters ~column_src columns)
  in
  let trans =
    Obs.Span.with_span "problem.build.trans" @@ fun () ->
    fill_trans ~params ~stats_of ?jobs reuse prev ~designs ~design_keys
  in
  record_summary reuse ~stats_tbl ~design_keys clusters columns trans;
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
