(** Equality synopses: the per-page filter both scan kernels share.

    A synopsis is a fixed-size bitset (4,096 bits, 512 bytes) of hashed
    [(key, value)] pairs over the records of one page, where [key] names
    the place in a record the value was read from: a heap record's [Int]
    field ({!Heap_file}), a B-tree entry's key component ({!Btree}).  A
    clear bit proves that no hashed record holds the value at that key; a
    set bit proves nothing (a collision, or a record gone since).  Which
    keys a synopsis has hashed for {e every} record of its page, and how
    a range's byte offset maps to a key, is each kernel's own rule. *)

type t

val create : unit -> t
(** An empty synopsis: every bit clear. *)

val bit : key:int -> int -> int
(** [bit ~key v] is the bit that records value [v] at [key].  Exposed so
    that tests can choose distinct values that share a bit. *)

val add : t -> key:int -> int -> unit
(** [add t ~key v] records value [v] at [key]. *)

val equalities : int array -> key_of:(int -> int option) -> int array
(** [equalities r ~key_of] is the equalities [(offset, v, v)] of the
    flattened [offset; lo; hi] triples [r] ({!Ranges.triples}) at an
    offset the kernel hashes, as flattened [key; v] pairs with
    [key_of offset = Some key], in order.  [key_of] is [None] for an
    offset the kernel never hashes. *)

val excludes : t -> int array -> below:int -> bool
(** [excludes t eq ~below] is whether [t] proves that no hashed record
    satisfies the conjunction of equalities [eq] (flattened [key; v]
    pairs: {!equalities}).  A pair is decided only when its key lies
    below [below], the keys the kernel hashed for {e every} record of the
    page; any other pair is "maybe".  [true] as soon as one decided
    pair's bit is clear. *)
