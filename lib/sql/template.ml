(* Statement cache: the parsing half of the serve ingest fast path.

   Production traces are overwhelmingly a small set of repeated statement
   texts (the observation workload collectors such as AIM build on), so
   the cache maps raw statement text to its parsed [Ast.statement] and the
   caller's per-text payload and cost key: a repeated text costs one
   string hash.  A fresh text is lexed and parsed for real, so every
   answer is bit-identical to a fresh parse. *)

module Obs = Cddpd_obs

type ('p, 'k) entry = {
  statement : Ast.statement;
  mutable cost_tag : (int * 'k) option;
  mutable validated : bool;
  mutable prepared : 'p option;
}

type stats = { exact_hits : int; misses : int; entries : int }

type ('p, 'k) t = {
  exact : (string, ('p, 'k) entry) Hashtbl.t;
  capacity : int;
  mutable exact_hits : int;
  mutable misses : int;
}

let m_hits = Obs.Registry.counter "sql.template_cache.hits"
let m_misses = Obs.Registry.counter "sql.template_cache.misses"

let default_capacity = 8192

let create ?(capacity = default_capacity) () =
  { exact = Hashtbl.create 256; capacity = max 16 capacity; exact_hits = 0; misses = 0 }

let stats t = { exact_hits = t.exact_hits; misses = t.misses; entries = Hashtbl.length t.exact }

let find_exact t text =
  match Hashtbl.find_opt t.exact text with
  | Some entry ->
      t.exact_hits <- t.exact_hits + 1;
      Obs.Counter.incr m_hits;
      Some entry
  | None -> None

let add_exact t text statement =
  t.misses <- t.misses + 1;
  Obs.Counter.incr m_misses;
  let entry = { statement; cost_tag = None; validated = false; prepared = None } in
  (* Wholesale reset on overflow: dropped entries only lose their memo
     slots ([cost_tag], [validated], [prepared]), which are recomputed on
     demand. *)
  if Hashtbl.length t.exact >= t.capacity then Hashtbl.reset t.exact;
  Hashtbl.replace t.exact text entry;
  entry
