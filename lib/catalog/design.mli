(** Physical designs: sets of structures (indexes and materialized views).

    A design is the unit the optimizers reason about — the configuration
    [C_i] of the paper.  Designs are immutable, canonically ordered sets
    with a total order so they can key maps and be deduplicated.

    Index-only helpers ([of_list], [add], [indexes], ...) are kept
    alongside the structure-level API because most call sites deal in
    indexes. *)

type t

val empty : t
(** The empty configuration. *)

(** {1 Structure-level API} *)

val of_structures : Structure.t list -> t

val structures : t -> Structure.t list
(** Members in canonical order. *)

val add_structure : Structure.t -> t -> t

val mem_structure : Structure.t -> t -> bool

val fold : (Structure.t -> 'a -> 'a) -> t -> 'a -> 'a

(** {1 Index-level helpers} *)

val of_list : Index_def.t list -> t
(** Build from indexes only (duplicates collapsed). *)

val indexes : t -> Index_def.t list
(** The index members only, in canonical order (views are skipped). *)

val singleton : Index_def.t -> t

val add : Index_def.t -> t -> t

val fold_indexes : (Index_def.t -> 'a -> 'a) -> t -> 'a -> 'a

(** {1 View-level helpers} *)

val views : t -> View_def.t list

val add_view : View_def.t -> t -> t

val fold_views : (View_def.t -> 'a -> 'a) -> t -> 'a -> 'a

(** {1 Set operations} *)

val union : t -> t -> t

val diff : t -> t -> t
(** [diff a b]: structures in [a] but not [b] — e.g. the structures that
    must be built when transitioning from [b] to [a]. *)

val cardinality : t -> int

val is_empty : t -> bool

val compare : t -> t -> int

val equal : t -> t -> bool

val name : t -> string
(** Paper notation: ["{}"] for the empty design, ["{I(a,b), MV(c)}"], etc. *)
