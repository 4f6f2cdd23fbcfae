(** Physical design structures: the units a {!Design} is a set of.

    The paper: "A physical design consists of a set of structures (e.g.,
    indexes or materialized views) chosen from a set of candidate
    structures." *)

type t =
  | Index of Index_def.t
  | View of View_def.t

val index : Index_def.t -> t

val view : View_def.t -> t

val table : t -> string
(** The table the structure belongs to. *)

val name : t -> string
(** [I(...)] or [MV(...)]. *)

val compare : t -> t -> int
(** Total order: all indexes before all views, then per-kind order. *)

val equal : t -> t -> bool

val as_index : t -> Index_def.t option

val as_view : t -> View_def.t option
