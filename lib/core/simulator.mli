(** Workload replay: execute a workload under a design schedule against
    the real engine, measuring I/O.

    This is the reproduction's stand-in for the paper's wall-clock
    measurements (Figure 3): every statement actually runs — index builds
    included — and the report separates execution I/O from transition
    (index build) I/O.  Page accesses through the buffer pool are the
    deterministic "time" unit. *)

type step_report = {
  step : int;
  design : Cddpd_catalog.Design.t;
  n_statements : int;
  exec_logical_io : int;
  trans_logical_io : int;  (** I/O of the design change entering this step *)
}

type report = {
  steps : step_report array;
  exec_logical_io : int;
  trans_logical_io : int;
  total_logical_io : int;  (** exec + transitions: the Figure 3 quantity *)
  rows_returned : int;
}

val run :
  Cddpd_engine.Database.t ->
  steps:Cddpd_sql.Ast.statement array array ->
  schedule:Cddpd_catalog.Design.t array ->
  report
(** Replay the workload: before each step, migrate to the scheduled design;
    then execute the step's statements.  The database is left on the last
    design.  Raises [Invalid_argument] if the schedule length differs from
    the step count. *)
