(** Synthetic table data matching the paper's test database: integer
    columns populated with independently, uniformly selected random values
    in [\[0, value_range)]. *)

val uniform_rows :
  columns:int -> rows:int -> value_range:int -> seed:int -> Cddpd_storage.Tuple.t array
(** Deterministic in [seed].  Raises [Invalid_argument] on non-positive
    [columns], [rows], or [value_range]. *)
