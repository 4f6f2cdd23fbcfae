module Ast = Cddpd_sql.Ast
module Obs = Cddpd_obs

let m_hits = Obs.Registry.counter "cost_cache.hits"
let m_misses = Obs.Registry.counter "cost_cache.misses"
let m_evictions = Obs.Registry.counter "cost_cache.evictions"
let m_generations = Obs.Registry.counter "cost_cache.generations"

type stats = { hits : int; misses : int; evictions : int; generations : int }

(* [access] and [maintenance] are indexed by session structure id; [nan]
   marks an atom not yet evaluated (a real access cost is finite or
   [infinity], never [nan]). *)
type row = {
  bound : Cost_model.bound;
  base : float;
  mutable access : float array;
  mutable maintenance : float array;
}

type t = {
  structure_ids : (string, int) Hashtbl.t;  (** structure cost identity -> session id *)
  mutable rows : (string, row) Hashtbl.t;  (** cluster cost identity -> atoms *)
  fingerprints : (string, string) Hashtbl.t;  (** table -> stats fingerprint *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable generations : int;
}

let create () =
  {
    structure_ids = Hashtbl.create 32;
    rows = Hashtbl.create 16;
    fingerprints = Hashtbl.create 8;
    hits = 0;
    misses = 0;
    evictions = 0;
    generations = 0;
  }

let stats t =
  { hits = t.hits; misses = t.misses; evictions = t.evictions; generations = t.generations }

(* The statistics fence: rows are only trusted while every table they were
   computed under still fingerprints the same.  Any mismatch flushes them
   all.  The snapshot then becomes the one the next build is checked
   against. *)
let fence t snapshot =
  (* Keyed lookups under an order-insensitive [exists]. *)
  let stale =
    Seq.exists
      (fun (table, stats) ->
        match Hashtbl.find_opt t.fingerprints table with
        | Some recorded -> not (String.equal recorded (Table_stats.fingerprint stats))
        | None -> false)
      (Hashtbl.to_seq snapshot)
  in
  if stale then begin
    t.rows <- Hashtbl.create 16;
    t.generations <- t.generations + 1;
    Obs.Counter.incr m_generations
  end;
  Hashtbl.reset t.fingerprints;
  (* Keyed copy into an emptied table: each key is visited once. *)
  Seq.iter
    (fun (table, stats) -> Hashtbl.replace t.fingerprints table (Table_stats.fingerprint stats))
    (Hashtbl.to_seq snapshot)

type lookup = { rows : row array; ids : int array; recosted : int; fresh : bool array }

let lookup t params ~snapshot ~structures ~structure_keys ~cluster_keys ~reps =
  fence t snapshot;
  let ids =
    Array.map
      (fun key ->
        match Hashtbl.find_opt t.structure_ids key with
        | Some id -> id
        | None ->
            let id = Hashtbl.length t.structure_ids in
            Hashtbl.replace t.structure_ids key id;
            id)
      structure_keys
  in
  let n_ids = Hashtbl.length t.structure_ids in
  let grow a = Array.append a (Array.make (n_ids - Array.length a) Float.nan) in
  let previous = t.rows in
  let current = Hashtbl.create (max 16 (Array.length cluster_keys)) in
  let kept = ref 0 and recosted = ref 0 and hits = ref 0 and misses = ref 0 in
  let fresh = Array.make (Array.length ids) false in
  let rows =
    Array.mapi
      (fun r key ->
        let row =
          match Hashtbl.find_opt previous key with
          | Some row ->
              incr kept;
              row
          | None ->
              incr recosted;
              let rep = reps.(r) in
              let bound = Cost_model.bind (Hashtbl.find snapshot (Ast.table_of rep)) rep in
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
              let atom = Cost_model.atom params row.bound structures.(u) in
              row.access.(id) <- Cost_model.access_cost atom;
              row.maintenance.(id) <- atom.Cost_model.maintenance;
              fresh.(u) <- true;
              incr misses
            end
            else incr hits)
          ids;
        Hashtbl.replace current key row;
        row)
      cluster_keys
  in
  (* Rows of clusters this build did not see are dropped, which bounds the
     memo by the workload it is currently costing. *)
  let evicted = Hashtbl.length previous - !kept in
  t.rows <- current;
  t.hits <- t.hits + !hits;
  t.misses <- t.misses + !misses;
  t.evictions <- t.evictions + evicted;
  Obs.Counter.add m_hits !hits;
  Obs.Counter.add m_misses !misses;
  Obs.Counter.add m_evictions evicted;
  { rows; ids; recosted = !recosted; fresh }
