(** Page-based B+-trees over fixed-arity integer keys.

    A tree stores a set of unique keys, each an [int array] of the tree's
    [key_len].  Secondary indexes are built on top by appending the record
    id components to the indexed column values, which makes every stored
    key unique and lets prefix scans recover the rids (see
    [Cddpd_engine.Index]).

    All node access goes through the {!Buffer_pool}, so lookups and inserts
    have realistic, countable I/O behaviour.  Deletion removes entries
    without rebalancing: searches stay correct, and space is reclaimed only
    on rebuild — the same simplification real systems make for
    non-compacting deletes. *)

type t

val create : Buffer_pool.t -> key_len:int -> t
(** An empty tree whose keys have [key_len] components.  Raises
    [Invalid_argument] if [key_len] is not in [\[1, 16\]]. *)

val bulk_load : Buffer_pool.t -> key_len:int -> int array array -> t
(** [bulk_load pool ~key_len keys] builds a tree from [keys], which must be
    sorted (lexicographically) and duplicate-free; raises
    [Invalid_argument] otherwise.  Leaves are packed to a 90% fill
    factor. *)

val insert : t -> int array -> unit
(** Insert a key; inserting an existing key is a no-op.  Raises
    [Invalid_argument] on a key of the wrong length. *)

val mem : t -> int array -> bool
(** Membership test. *)

val delete : t -> int array -> bool
(** Remove a key; returns whether it was present. *)

val iter_range : t -> lo:int array -> hi:int array -> (int array -> unit) -> unit
(** [iter_range t ~lo ~hi f] applies [f] to every stored key [k] with
    [lo <= k <= hi] (lexicographic), in ascending order, as a fresh
    array: {!iter_range_slices} with {!Ranges.none}. *)

val iter_range_slices :
  t -> lo:int array -> hi:int array -> ranges:Ranges.t -> (bytes -> int -> unit) -> unit
(** The range-walk kernel behind every index access path.
    [iter_range_slices t ~lo ~hi ~ranges f] walks the stored keys [k] with
    [lo <= k <= hi] (lexicographic) in ascending order, tests [ranges] on
    each entry in place and calls [f] only on the matches, with the leaf
    page's buffer and the entry's byte offset: key component [j] is the
    64-bit little-endian integer at [offset + 8 * j].  The buffer is only
    valid for the duration of the call.  The descent and the leaf walk
    compare stored keys in place and allocate nothing per entry.  Pages
    are fetched, pinned and unpinned exactly as a plain walk would (root
    to leaf, then leaf by leaf, stopping at the first key above [hi]);
    when [lo > hi] no page is fetched at all.

    A leaf's entry loop may be skipped.  Each leaf keeps an equality
    {!Synopsis} keyed by key component, built from the bytes a walk has
    fetched, the first time a walk whose [ranges] hold an equality
    ({!Ranges.has_equality}) on an aligned component ([offset = 8 * j])
    reads the leaf; any write to the leaf ({!insert}, {!delete}) drops
    it.  When the synopsis has no bit for such an equality's value, no
    entry of the leaf can match, and the walk skips the leaf's entries
    and counts it in [btree.leaves_skipped].  Equalities on components
    that [lo] and [hi] already fix (equal on that component and every
    one before it) consult no synopsis.  Skipping changes neither the
    matches, nor their order, nor any page access. *)

val iter_prefix : t -> prefix:int array -> (int array -> unit) -> unit
(** [iter_prefix t ~prefix f] applies [f] to every key whose first
    [Array.length prefix] components equal [prefix], in ascending order.
    Raises [Invalid_argument] if the prefix is longer than the key. *)

val iter_all : t -> (int array -> unit) -> unit
(** Full in-order traversal. *)

val n_entries : t -> int
(** Number of stored keys. *)

val height : t -> int
(** Levels from root to leaf inclusive; an empty tree has height 1. *)

val n_pages : t -> int
(** Number of pages the tree occupies (including pages emptied by
    deletions, which are not reclaimed). *)
