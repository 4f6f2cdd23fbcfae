(** Shared experimental setup: the paper's test database, candidate set and
    configuration space (Section 6.1).

    The paper used a 2.5M-row table on SQL Server; the default here is a
    250k-row table on the simulated engine with the value range scaled to
    keep the rows-per-value density (5) — all reported quantities are
    relative, so ratios are preserved.  [rows] and [scale] let callers run
    anything from unit-test-sized to paper-sized instances. *)

type config = {
  rows : int;  (** table cardinality (paper: 2,500,000) *)
  value_range : int;  (** column value domain (paper: 500,000) *)
  scale : float;  (** workload segment-length multiplier (1.0 = 500) *)
  seed : int;  (** master seed for data and workload generation *)
  pool_capacity : int;  (** buffer pool frames *)
}

val default_config : config
(** rows 100_000, value_range 20_000, scale 1.0, seed 20080407 (the
    conference date), pool 16384 frames.  The rows-per-value density (5)
    matches the paper's 2.5M rows over 500k values. *)

val test_config : config
(** A small instance for unit tests: 5_000 rows, scale 0.04. *)

val table_name : string
(** ["t"] *)

val schema : Cddpd_catalog.Schema.table
(** t(a int, b int, c int, d int). *)

val paper_candidates : Cddpd_catalog.Index_def.t list
(** I(a), I(b), I(c), I(d), I(a,b), I(c,d). *)

val paper_space : Cddpd_core.Config_space.t
(** The 7 configurations: empty plus one per candidate. *)

val make_database : config -> Cddpd_engine.Database.t
(** Create, load and analyze the test database. *)

val workload : config -> string -> Cddpd_workload.Spec.t
(** ["W1"], ["W2"] or ["W3"], scaled by [config.scale]. *)

val workload_steps :
  config -> Cddpd_workload.Spec.t -> Cddpd_sql.Ast.statement array array
(** Generate the workload's statements, one array per segment. *)

val build_problem :
  Cddpd_engine.Database.t ->
  steps:Cddpd_sql.Ast.statement array array ->
  Cddpd_core.Problem.t
(** Problem instance over {!paper_space} with an empty initial design and
    the paper's change-counting convention (initial change free). *)
