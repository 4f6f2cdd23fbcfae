(** Index definitions: candidate physical design structures.

    An index definition names a table and an ordered list of key columns.
    The paper's design space consists of the single-column indexes I(a),
    I(b), I(c), I(d) and the composite indexes I(a,b) and I(c,d); this
    module supports any column list. *)

type t

val make : table:string -> columns:string list -> t
(** Raises [Invalid_argument] on an empty or duplicate column list. *)

val table : t -> string
(** The indexed table. *)

val columns : t -> string list
(** The key columns, in index order. *)

val name : t -> string
(** Display name in the paper's notation, e.g. ["I(a,b)"]. *)

val compare : t -> t -> int
(** Total order (by table, then columns). *)

val equal : t -> t -> bool
