(** Reporting workloads: streams of aggregate (GROUP BY) queries.

    Complements {!Mix} (point queries) for exercising the materialized-view
    side of the design space: a "reporting phase" issues
    [SELECT g, COUNT( * )|SUM(c) FROM t \[WHERE g = v\] GROUP BY g]
    statements. *)

val segment :
  table:string ->
  group_by:string ->
  sum_columns:string list ->
  ?probe_fraction:float ->
  n:int ->
  value_range:int ->
  seed:int ->
  unit ->
  Cddpd_sql.Ast.statement array
(** A deterministic batch of [n] reporting queries.  Each is a COUNT or
    a SUM over a random column from [sum_columns] (COUNT when the list is
    empty), grouped by [group_by]; with probability [probe_fraction]
    (default 0.5) it probes a single random group value instead of
    scanning all groups. *)
