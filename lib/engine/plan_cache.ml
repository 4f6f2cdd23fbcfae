(* Plan-choice memo for the serve ingest fast path.

   Keys are [Cost_key.statement] strings.  They are self-fencing against
   statistics churn: a key embeds the statistics shape and the exact
   selectivity bits of every predicate, so a stale snapshot yields a
   different key and no statistics invalidation is needed.  Keys do not
   name the deployed design; [invalidate] is the design fence instead.
   The database flushes the memo on every structure change, so an entry
   always holds a plan chosen under the current design.

   A plan is an access-path shape plus the estimator's floats, with no
   literal in it, so a hit is returned as is: the executor takes each
   statement's literals from the statement ([Filter.seek]). *)

module Obs = Cddpd_obs

type stats = {
  hits : int;
  misses : int;
  invalidations : int;
  entries : int;
}

type t = {
  table : (string, Plan.t) Hashtbl.t;
  capacity : int;
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
}

let m_hits = Obs.Registry.counter "plan_cache.hits"
let m_misses = Obs.Registry.counter "plan_cache.misses"
let m_invalidations = Obs.Registry.counter "plan_cache.invalidations"

let default_capacity = 8192

let create ?(capacity = default_capacity) () =
  {
    table = Hashtbl.create 256;
    capacity = max 16 capacity;
    hits = 0;
    misses = 0;
    invalidations = 0;
  }

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    invalidations = t.invalidations;
    entries = Hashtbl.length t.table;
  }

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some plan ->
      t.hits <- t.hits + 1;
      Obs.Counter.incr m_hits;
      Some plan
  | None ->
      t.misses <- t.misses + 1;
      Obs.Counter.incr m_misses;
      None

let store t key plan =
  if Hashtbl.length t.table >= t.capacity then Hashtbl.reset t.table;
  Hashtbl.replace t.table key plan

let invalidate t =
  if Hashtbl.length t.table > 0 then begin
    Hashtbl.reset t.table;
    t.invalidations <- t.invalidations + 1;
    Obs.Counter.incr m_invalidations
  end
