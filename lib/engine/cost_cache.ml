module Ast = Cddpd_sql.Ast
module Structure = Cddpd_catalog.Structure
module Obs = Cddpd_obs

let m_hits = Obs.Registry.counter "cost_cache.hits"
let m_misses = Obs.Registry.counter "cost_cache.misses"
let m_evictions = Obs.Registry.counter "cost_cache.evictions"

type stats = { hits : int; misses : int; evictions : int; generations : int }

(* [access] and [maintenance] are indexed by session structure id; [nan]
   marks an atom not yet evaluated (a real access cost is finite or
   [infinity], never [nan]). *)
type row = {
  mutable bound : Cost_model.bound;
  base : float;
  mutable access : float array;
  mutable maintenance : float array;
}

(* A structure's session id and the {!Cost_key.structure_stats} its
   stored atoms were evaluated under. *)
type slot = { id : int; mutable structure_stats : int }

type t = {
  slots : (string, slot) Hashtbl.t;  (** structure cost identity -> slot *)
  mutable rows : row Cost_key.Id_tbl.t;  (** cluster cost identity -> atoms *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create () =
  {
    slots = Hashtbl.create 32;
    rows = Cost_key.Id_tbl.create 16;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let stats t = { hits = t.hits; misses = t.misses; evictions = t.evictions; generations = 0 }

type lookup = { rows : row array; ids : int array; recosted : int; fresh : bool array }

let missing_atom row ids =
  let rec from u = u < Array.length ids && (Float.is_nan row.access.(ids.(u)) || from (u + 1)) in
  from 0

let lookup t params ~snapshot ~structures ~structure_keys ~cluster_keys ~reps =
  let stats_of table = Hashtbl.find snapshot table in
  (* A structure whose {!Cost_key.structure_stats} moved keeps its id: the
     column's stored atoms are cleared from every kept row below, so the
     id table and the rows' width follow the structures, not the
     refreshes. *)
  let cleared = ref [] in
  let ids =
    Array.mapi
      (fun u key ->
        let s = structures.(u) in
        let structure_stats = Cost_key.structure_stats (stats_of (Structure.table s)) s in
        match Hashtbl.find_opt t.slots key with
        | Some slot ->
            if slot.structure_stats <> structure_stats then begin
              slot.structure_stats <- structure_stats;
              cleared := slot.id :: !cleared
            end;
            slot.id
        | None ->
            let id = Hashtbl.length t.slots in
            Hashtbl.replace t.slots key { id; structure_stats };
            id)
      structure_keys
  in
  let cleared = Array.of_list !cleared in
  let n_ids = Hashtbl.length t.slots in
  let grow a = Array.append a (Array.make (n_ids - Array.length a) Float.nan) in
  let previous = t.rows in
  let current = Cost_key.Id_tbl.create (max 16 (Array.length cluster_keys)) in
  let kept = ref 0 and recosted = ref 0 and hits = ref 0 and misses = ref 0 in
  let fresh = Array.make (Array.length ids) false in
  let bind rep = Cost_model.bind (stats_of (Ast.table_of rep)) rep in
  let rows =
    Array.mapi
      (fun r key ->
        let kept_row = Cost_key.Id_tbl.find_opt previous key in
        let row =
          match kept_row with
          | Some row ->
              incr kept;
              row
          | None ->
              incr recosted;
              let bound = bind reps.(r) in
              let base = (Cost_model.base_plan params bound).Plan.estimated_cost in
              { bound; base; access = [||]; maintenance = [||] }
        in
        if Array.length row.access < n_ids then begin
          row.access <- grow row.access;
          row.maintenance <- grow row.maintenance
        end;
        (* A kept row may have been bound under an older snapshot: its key
           proves its base and composition unchanged, but its missing atoms
           are evaluated from a binding under this one. *)
        if Option.is_some kept_row then begin
          for c = 0 to Array.length cleared - 1 do
            row.access.(cleared.(c)) <- Float.nan
          done;
          if missing_atom row ids then row.bound <- bind reps.(r)
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
        Cost_key.Id_tbl.replace current key row;
        row)
      cluster_keys
  in
  (* Rows of clusters this build did not see are dropped, which bounds the
     memo by the workload it is currently costing. *)
  let evicted = Cost_key.Id_tbl.length previous - !kept in
  t.rows <- current;
  t.hits <- t.hits + !hits;
  t.misses <- t.misses + !misses;
  t.evictions <- t.evictions + evicted;
  Obs.Counter.add m_hits !hits;
  Obs.Counter.add m_misses !misses;
  Obs.Counter.add m_evictions evicted;
  { rows; ids; recosted = !recosted; fresh }
