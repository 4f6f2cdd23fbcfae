(** Query mixes: probability distributions over queried columns.

    A mix generates point queries of the paper's template
    [SELECT <col> FROM t WHERE <col> = <randValue>], picking the column
    according to the mix weights and the constant uniformly from the value
    range.  Table 1 of the paper defines four mixes A-D over columns
    a, b, c, d. *)

type t

val make : name:string -> (string * float) list -> t
(** [make ~name weights] builds a mix.  Weights must be positive and are
    normalised internally; raises [Invalid_argument] on an empty list,
    non-positive weights, or duplicate columns. *)

val name : t -> string

val weights : t -> (string * float) list
(** Normalised weights (summing to 1), in declaration order. *)

val weight : t -> string -> float
(** Normalised weight of a column (0 if absent). *)

val sample_column : t -> Cddpd_util.Rng.t -> string
(** Draw a column according to the weights. *)

val sample_query :
  t -> table:string -> value_range:int -> Cddpd_util.Rng.t -> Cddpd_sql.Ast.statement
(** Draw one point query: the column per the mix, the constant uniform in
    [\[0, value_range)], projecting the queried column (as in the paper's
    template). *)

(** {1 The paper's mixes (Table 1)}

    Over columns a, b, c, d with weights in percent:
    A = 55/25/10/10, B = 25/55/10/10, C = 10/10/55/25, D = 10/10/25/55. *)

val mix_a : t
val mix_b : t
val mix_c : t
val mix_d : t

val of_letter : char -> t
(** ['A'..'D'] (case-insensitive) to the corresponding mix; raises
    [Invalid_argument] otherwise. *)

val pp : Format.formatter -> t -> unit
