(** Workload specifications: sequences of segments, each drawing a number
    of queries from one mix.

    A specification is the ground truth the experiments are built from
    (e.g. "500 queries of mix A, then 500 of mix B, ...").  Generation is
    deterministic given a seed. *)

type segment = { mix : Mix.t; n_queries : int }

type t

val make : segment list -> t
(** Raises [Invalid_argument] on an empty list or non-positive counts. *)

val of_letters : ?queries_per_segment:int -> string -> t
(** [of_letters "AABB"] builds uniform segments from mix letters (default
    500 queries each, the granularity of the paper's Table 2). *)

val n_segments : t -> int

val total_queries : t -> int

val mix_letters : t -> string
(** The mix names concatenated, e.g. ["AABB"]. *)

val generate :
  t ->
  table:string ->
  value_range:int ->
  seed:int ->
  Cddpd_sql.Ast.statement array array
(** One statement array per segment, deterministic in [seed]. *)

val generate_flat :
  t -> table:string -> value_range:int -> seed:int -> Cddpd_sql.Ast.statement array
(** All segments concatenated. *)

val pp : Format.formatter -> t -> unit
