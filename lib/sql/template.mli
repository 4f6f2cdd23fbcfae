(** Statement cache backing {!Parser.parse_cached}.

    One table keyed on raw statement text: a repeated text returns its
    parsed statement (plus per-text memo slots) for one string hash.  A
    fresh text is lexed and parsed for real, so every answer is
    bit-identical to a fresh parse.  ['p] is the type of the caller's
    per-text payload ({!entry.prepared}) and ['k] the type of its cost
    key ({!entry.cost_tag}); serve stores its execution handle and its
    hashed cost identity there, so this library never sees the cost
    model.

    The cache is single-domain (serve's ingest loop); it is not
    thread-safe. *)

type ('p, 'k) entry = {
  statement : Ast.statement;  (** parse result for the cached text *)
  mutable cost_tag : (int * 'k) option;
      (** caller-owned memo slot: serve stamps it with
          [(statistics generation, hashed cost-identity key)] so a
          repeated text skips re-keying, and re-hashing, while the
          snapshot is unchanged *)
  mutable validated : bool;
      (** set by the caller once the statement has passed semantic checks
          against the live schema; sound as long as the schema is fixed,
          which serve guarantees *)
  mutable prepared : 'p option;
      (** caller-owned payload slot, [None] in a fresh entry: serve keeps
          the text's prepared statement here from its second execution
          on, so a text seen once keeps nothing *)
}

type stats = {
  exact_hits : int;  (** texts answered from the table *)
  misses : int;  (** texts that needed a real parse *)
  entries : int;  (** distinct texts currently cached *)
}

type ('p, 'k) t

val create : ?capacity:int -> unit -> ('p, 'k) t
(** [create ()] makes an empty cache.  [capacity] bounds the table;
    overflow resets it wholesale (entries are pure memos). *)

val stats : ('p, 'k) t -> stats

val find_exact : ('p, 'k) t -> string -> ('p, 'k) entry option
(** Exact-text lookup; counts a hit when it succeeds. *)

val add_exact : ('p, 'k) t -> string -> Ast.statement -> ('p, 'k) entry
(** Insert the parse result for [text], count the miss, and return the
    (fresh) entry. *)
