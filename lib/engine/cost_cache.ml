module Ast = Cddpd_sql.Ast
module Structure = Cddpd_catalog.Structure
module Obs = Cddpd_obs

let m_hits = Obs.Registry.counter "cost_cache.hits"
let m_misses = Obs.Registry.counter "cost_cache.misses"
let m_evictions = Obs.Registry.counter "cost_cache.evictions"
let m_rows_visited = Obs.Registry.counter "cost_cache.rows_visited"

type stats = { hits : int; misses : int; evictions : int; generations : int }

(* [access] and [maintenance] are indexed by session structure id; [nan]
   marks an atom not yet evaluated (a real access cost is finite or
   [infinity], never [nan]).  [composed] is the caller's, emptied whenever
   an atom of the row is evaluated. *)
type row = {
  mutable bound : Cost_model.bound;
  base : float;
  mutable access : float array;
  mutable maintenance : float array;
  mutable composed : float array;
}

let set_composed row costs = row.composed <- costs

(* A row and the number of live steps that reference it. *)
type entry = { row : row; mutable refs : int }

(* A structure's session id and the {!Cost_key.structure_stats} its
   stored atoms were evaluated under. *)
type slot = { id : int; mutable structure_stats : int }

type t = {
  slots : (string, slot) Hashtbl.t;  (** structure cost identity -> slot *)
  entries : entry Cost_key.Id_tbl.t;  (** cluster cost identity -> row *)
  mutable ids : int array;  (** the latest lookup's structures, by session id *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create () =
  {
    slots = Hashtbl.create 32;
    entries = Cost_key.Id_tbl.create 16;
    ids = [||];
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let stats t = { hits = t.hits; misses = t.misses; evictions = t.evictions; generations = 0 }

type clusters = { keys : Cost_key.id array; reps : Ast.statement array }

type lookup = {
  rows : row array;
  ids : int array;
  recosted : int;
  fresh : bool array;
  live : int;
}

let missing_atom row ids =
  let rec from u = u < Array.length ids && (Float.is_nan row.access.(ids.(u)) || from (u + 1)) in
  from 0

let lookup t params ~snapshot ~structures ~structure_keys ~arriving ~references ~departing =
  let stats_of table = Hashtbl.find snapshot table in
  (* A structure whose {!Cost_key.structure_stats} moved keeps its id: the
     column's stored atoms are cleared from every visited row below, so
     the id table and the rows' width follow the structures, not the
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
  let made = ref [] and recosted = ref 0 and misses = ref 0 in
  let fresh = Array.make (Array.length ids) false in
  let bind rep = Cost_model.bind (stats_of (Ast.table_of rep)) rep in
  (* A visit brings a row up to date: a new row is bound and costed; a
     kept row may have been bound under an older snapshot — its key
     proves its base and composition unchanged, but its missing atoms are
     evaluated from a binding under this one. *)
  let kept entry rep =
    let row = entry.row in
    if Array.length row.access < n_ids then begin
      row.access <- grow row.access;
      row.maintenance <- grow row.maintenance
    end;
    for c = 0 to Array.length cleared - 1 do
      row.access.(cleared.(c)) <- Float.nan
    done;
    if missing_atom row ids then row.bound <- bind rep;
    entry
  in
  let made_row key rep =
    incr recosted;
    let bound = bind rep in
    let base = (Cost_model.base_plan params bound).Plan.estimated_cost in
    let row =
      {
        bound;
        base;
        access = Array.make n_ids Float.nan;
        maintenance = Array.make n_ids Float.nan;
        composed = [||];
      }
    in
    let entry = { row; refs = 0 } in
    Cost_key.Id_tbl.replace t.entries key entry;
    made := key :: !made;
    entry
  in
  let visit key rep =
    let entry =
      match Cost_key.Id_tbl.find_opt t.entries key with
      | Some entry -> kept entry rep
      | None -> made_row key rep
    in
    let row = entry.row in
    let evaluated = !misses in
    Array.iteri
      (fun u id ->
        if Float.is_nan row.access.(id) then begin
          let atom = Cost_model.atom params row.bound structures.(u) in
          row.access.(id) <- Cost_model.access_cost atom;
          row.maintenance.(id) <- atom.Cost_model.maintenance;
          fresh.(u) <- true;
          incr misses
        end)
      ids;
    if !misses > evaluated then row.composed <- [||];
    entry
  in
  let visited =
    match Array.map2 visit arriving.keys arriving.reps with
    | visited -> visited
    | exception e ->
        (* No reference was taken yet: forget the rows this lookup made,
           so the memo still holds exactly the live steps' rows. *)
        List.iter (Cost_key.Id_tbl.remove t.entries) !made;
        raise e
  in
  (* Arriving references are taken before departing ones are released, so
     a row an arriving step shares with a departing one stays. *)
  Array.iter (Array.iter (fun p -> visited.(p).refs <- visited.(p).refs + 1)) references;
  let evicted = ref 0 in
  Array.iter
    (Array.iter (fun key ->
         match Cost_key.Id_tbl.find_opt t.entries key with
         | Some entry ->
             entry.refs <- entry.refs - 1;
             if entry.refs = 0 then begin
               Cost_key.Id_tbl.remove t.entries key;
               incr evicted
             end
         | None -> invalid_arg "Cost_cache.lookup: a departing cluster has no row"))
    departing;
  let live = Cost_key.Id_tbl.length t.entries in
  (* Rows no arriving step visited hold the atoms of the previous lookup's
     structures, which are this one's only while those structures and
     their statistics stand. *)
  let same_structures = Array.length cleared = 0 && ids = t.ids in
  t.ids <- ids;
  if live > Array.length visited && not same_structures then
    invalid_arg "Cost_cache.lookup: structures changed under rows of kept steps";
  (* Every live row now holds every requested atom, so the atoms read
     rather than evaluated are all of them but the misses. *)
  let hits = (live * Array.length ids) - !misses in
  t.hits <- t.hits + hits;
  t.misses <- t.misses + !misses;
  t.evictions <- t.evictions + !evicted;
  Obs.Counter.add m_hits hits;
  Obs.Counter.add m_misses !misses;
  Obs.Counter.add m_evictions !evicted;
  Obs.Counter.add m_rows_visited (Array.length visited);
  {
    rows = Array.map (fun entry -> entry.row) visited;
    ids;
    recosted = !recosted;
    fresh;
    live;
  }
