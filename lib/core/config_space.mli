(** Configuration spaces: the candidate physical designs the optimizers
    choose among.

    A space is an ordered, duplicate-free array of designs; optimizers work
    with integer config ids (indexes into the array).  The paper's
    experiments use a 7-configuration space: the empty design plus one
    design per candidate index. *)

type t

val of_designs : Cddpd_catalog.Design.t list -> t
(** Build a space from explicit designs (duplicates collapsed, order of
    first occurrence kept).  Raises [Invalid_argument] on an empty list. *)

val single_index : Cddpd_catalog.Index_def.t list -> t
(** The empty design plus one singleton design per candidate index — the
    paper's "at most one index" space.  Duplicated candidates are
    collapsed. *)

val single_structure : Cddpd_catalog.Structure.t list -> t
(** Like {!single_index} over arbitrary structures (indexes and
    materialized views). *)

val enumerate :
  candidates:Cddpd_catalog.Structure.t list ->
  ?max_structures:int ->
  ?space_bound_bytes:int ->
  size_of:(Cddpd_catalog.Structure.t -> int) ->
  unit ->
  t
(** All subsets of [candidates] with at most [max_structures] members
    (default: no limit) whose total size fits [space_bound_bytes] (default:
    no limit) — the SIZE(C) <= b constraint of Definition 1 applied at
    space construction time.  The empty design is always included.  Raises
    [Invalid_argument] when more than 20 candidates are given without a
    [max_structures] cap (2^20 designs is past the point where the
    exponential algorithms are usable); the error names the two ways out —
    cap [max_structures], or build a dominance-pruned space with
    {!Pruner.space}. *)

val size : t -> int
(** Number of configurations. *)

val design : t -> int -> Cddpd_catalog.Design.t
(** The design with the given id.  Raises [Invalid_argument] when out of
    range. *)

val designs : t -> Cddpd_catalog.Design.t array
(** All designs (a copy). *)

val id_of : t -> Cddpd_catalog.Design.t -> int option
(** Reverse lookup. *)

val id_of_exn : t -> Cddpd_catalog.Design.t -> int

val restrict : t -> int list -> t * int array
(** [restrict t ids] is the sub-space containing the given configs (deduped,
    in given order) together with the mapping from new ids back to old ids.
    Used by GREEDY-SEQ to run the exact solver on a reduced space. *)
