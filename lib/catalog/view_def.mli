(** Materialized-view definitions: the second kind of physical design
    structure the paper mentions alongside indexes.

    A view definition names a table and a grouping column; the
    materialisation stores, per distinct group value, the row count and
    the per-integer-column sums — enough to answer any
    [SELECT g, COUNT( * )|SUM(c) ... GROUP BY g] over the table, and
    incrementally maintainable under inserts, deletes and updates (COUNT
    and SUM are self-maintainable aggregates; MIN/MAX are not, which is
    why they are not offered). *)

type t

val make : table:string -> group_by:string -> t

val table : t -> string

val group_by : t -> string

val name : t -> string
(** Display name, e.g. ["MV(a)"]. *)

val compare : t -> t -> int

val equal : t -> t -> bool
