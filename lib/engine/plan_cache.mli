(** Plan-choice memo keyed on hashed [Cost_key.statement] identities
    ({!Cost_key.id}): a lookup reads the id's stored hash and compares
    the full key, so it never re-hashes the key string.

    The key is self-fencing against statistics churn — it embeds the
    statistics shape and the exact selectivity bits of every predicate.
    It does not name the design: the owner must call {!invalidate} on
    every design change, which makes a hit the bit-identical plan a
    fresh [Cost_model.choose_plan] would produce under the current
    design.  Plans hold no literal ({!Plan.access_path}), so a hit needs
    no rebinding.  Single-domain. *)

type stats = {
  hits : int;
  misses : int;
  invalidations : int;  (** design-change flushes of a non-empty table *)
  entries : int;
}

type t

val create : ?capacity:int -> unit -> t
(** Overflow resets the table wholesale; entries are pure memos. *)

val stats : t -> stats

val find : t -> Cost_key.id -> Plan.t option
(** Lookup; counts a hit or a miss. *)

val store : t -> Cost_key.id -> Plan.t -> unit

val invalidate : t -> unit
(** Flush after a deployed-design change — the memo's only design fence.
    No-op (and not counted) when the table is already empty. *)
