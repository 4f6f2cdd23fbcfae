(** Statement cache backing {!Parser.parse_cached}.

    One table keyed on raw statement text: a repeated text returns its
    parsed statement (plus per-text memo slots) for one string hash.  A
    fresh text is lexed and parsed for real, so every answer is
    bit-identical to a fresh parse.

    The cache is single-domain (serve's ingest loop); it is not
    thread-safe. *)

type entry = {
  statement : Ast.statement;  (** parse result for the cached text *)
  mutable cost_tag : (int * string) option;
      (** caller-owned memo slot: serve stamps it with
          [(statistics generation, cost-identity key)] so a repeated text
          skips re-keying while the snapshot is unchanged *)
  mutable validated : bool;
      (** set by the caller once the statement has passed semantic checks
          against the live schema; sound as long as the schema is fixed,
          which serve guarantees *)
}

type stats = {
  exact_hits : int;  (** texts answered from the table *)
  misses : int;  (** texts that needed a real parse *)
  entries : int;  (** distinct texts currently cached *)
}

type t

val create : ?capacity:int -> unit -> t
(** [create ()] makes an empty cache.  [capacity] bounds the table;
    overflow resets it wholesale (entries are pure memos). *)

val stats : t -> stats

val find_exact : t -> string -> entry option
(** Exact-text lookup; counts a hit when it succeeds. *)

val add_exact : t -> string -> Ast.statement -> entry
(** Insert the parse result for [text], count the miss, and return the
    (fresh) entry. *)
