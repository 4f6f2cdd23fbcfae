module Obs = Cddpd_obs

let m_hits = Obs.Registry.counter "cost_cache.hits"
let m_misses = Obs.Registry.counter "cost_cache.misses"
let m_evictions = Obs.Registry.counter "cost_cache.evictions"
let m_generations = Obs.Registry.counter "cost_cache.generations"

type stats = { hits : int; misses : int; evictions : int; generations : int }

type cache = {
  capacity : int;
  mutable current : (string, float) Hashtbl.t;
  mutable previous : (string, float) Hashtbl.t;
  builds : (string, float) Hashtbl.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
  evictions : int Atomic.t;
  generations : int Atomic.t;
  (* publish_obs watermarks *)
  mutable published_hits : int;
  mutable published_misses : int;
  mutable published_evictions : int;
  mutable published_generations : int;
}

type t = Disabled | Enabled of cache

let default_capacity = 65536

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Cost_cache.create: capacity < 1";
  Enabled
    {
      capacity;
      current = Hashtbl.create (min capacity 1024);
      previous = Hashtbl.create 16;
      builds = Hashtbl.create 64;
      hits = Atomic.make 0;
      misses = Atomic.make 0;
      evictions = Atomic.make 0;
      generations = Atomic.make 0;
      published_hits = 0;
      published_misses = 0;
      published_evictions = 0;
      published_generations = 0;
    }

let disabled = Disabled

let stats t =
  match t with
  | Disabled -> { hits = 0; misses = 0; evictions = 0; generations = 0 }
  | Enabled c ->
      {
        hits = Atomic.get c.hits;
        misses = Atomic.get c.misses;
        evictions = Atomic.get c.evictions;
        generations = Atomic.get c.generations;
      }

let publish_obs t =
  match t with
  | Disabled -> ()
  | Enabled c ->
      let hits = Atomic.get c.hits
      and misses = Atomic.get c.misses
      and evictions = Atomic.get c.evictions
      and generations = Atomic.get c.generations in
      Obs.Counter.add m_hits (hits - c.published_hits);
      Obs.Counter.add m_misses (misses - c.published_misses);
      Obs.Counter.add m_evictions (evictions - c.published_evictions);
      Obs.Counter.add m_generations (generations - c.published_generations);
      c.published_hits <- hits;
      c.published_misses <- misses;
      c.published_evictions <- evictions;
      c.published_generations <- generations

(* -- generational statement-entry store ------------------------------------- *)

let insert c key v =
  if Hashtbl.length c.current >= c.capacity then begin
    let discarded = Hashtbl.length c.previous in
    if discarded > 0 then ignore (Atomic.fetch_and_add c.evictions discarded);
    Atomic.incr c.generations;
    c.previous <- c.current;
    c.current <- Hashtbl.create (min c.capacity 1024)
  end;
  Hashtbl.replace c.current key v

let find_or_compute c key compute =
  match Hashtbl.find_opt c.current key with
  | Some v ->
      Atomic.incr c.hits;
      v
  | None -> (
      match Hashtbl.find_opt c.previous key with
      | Some v ->
          (* Promote, so rotation keeps hot entries. *)
          Atomic.incr c.hits;
          insert c key v;
          v
      | None ->
          Atomic.incr c.misses;
          let v = compute () in
          insert c key v;
          v)

(* -- cached costing ---------------------------------------------------------- *)

let statement_cost t params stats ~design ?design_key statement =
  match t with
  | Disabled -> Cost_model.statement_cost params stats design statement
  | Enabled c ->
      let design_key =
        match design_key with Some k -> k | None -> Cost_key.design design
      in
      find_or_compute c
        (Cost_key.statement_under_design ~design ~design_key stats statement)
        (fun () -> Cost_model.statement_cost params stats design statement)

let structure_build_cost t params stats structure =
  match t with
  | Disabled -> Cost_model.structure_build_cost params stats structure
  | Enabled c -> (
      let key = Cost_key.structure structure in
      match Hashtbl.find_opt c.builds key with
      | Some v ->
          Atomic.incr c.hits;
          v
      | None ->
          Atomic.incr c.misses;
          let v = Cost_model.structure_build_cost params stats structure in
          Hashtbl.replace c.builds key v;
          v)

let invalidate_builds t =
  match t with Disabled -> () | Enabled c -> Hashtbl.reset c.builds
