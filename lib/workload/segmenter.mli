(** Automatic trace segmentation by change-point detection.

    The optimizers consume a workload as a sequence of steps; when the
    input is a flat captured trace, something must choose the step
    boundaries.  Fixed-size chopping ({!Trace.segment}) works when the
    capture cadence is known; this module instead detects the points where
    the workload's character shifts, by comparing the predicate-column
    frequency vectors of adjacent windows and splitting where their L1
    distance exceeds a threshold.

    The detected boundaries are exactly the "shifts" of the paper's
    workload model, so [Segmenter] also gives a principled default for the
    change budget: one change per detected major shift. *)

type params = {
  window : int;  (** statements per comparison window (default 250) *)
  threshold : float;
      (** L1 distance in [\[0, 2\]] above which a boundary is declared
          (default 0.5) *)
  min_segment : int;
      (** smallest allowed segment, in statements (default one window) *)
}

val column_profile : Cddpd_sql.Ast.statement array -> (string * float) list
(** Relative frequency of each predicate column over the statements,
    most frequent first. *)

val profile_distance :
  (string * float) list -> (string * float) list -> float
(** L1 distance between two profiles, in [\[0, 2\]]. *)

val boundaries : ?params:params -> Cddpd_sql.Ast.statement array -> int list
(** Detected change points (statement indexes, ascending, exclusive of 0
    and the end). *)

val segment :
  ?params:params ->
  Cddpd_sql.Ast.statement array ->
  Cddpd_sql.Ast.statement array array
(** Split the trace at the detected boundaries.  A trace with no shifts
    comes back as a single segment. *)

val suggest_k : ?params:params -> Cddpd_sql.Ast.statement array -> int
(** The number of detected boundaries — the paper's "number of anticipated
    fluctuations" heuristic for choosing the change budget. *)
