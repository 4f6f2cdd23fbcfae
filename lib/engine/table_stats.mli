(** Per-table statistics used for cardinality estimation.

    Row count, heap page count, and one histogram per integer column.
    Predicates on text columns fall back to a default selectivity. *)

type t

val make :
  row_count:int ->
  page_count:int ->
  histograms:(string * Histogram.t) list ->
  t
(** Assemble statistics (normally done by [Database.analyze]). *)

val row_count : t -> int

val page_count : t -> int

val histogram : t -> string -> Histogram.t option
(** The column's histogram, if one was collected. *)

val columns : t -> string list
(** The columns with a histogram, in collection order. *)

val n_histograms : t -> int
(** Number of columns with histograms (the table's integer columns). *)

val fingerprint : t -> string
(** Digest of everything the cost model can read from these statistics:
    row count, page count, and every histogram's full contents (via
    {!Histogram.add_fingerprint_bytes}).  Equal fingerprints imply every
    cost-model estimate over the two statistics snapshots is
    bit-identical: an equality oracle for checks that an incrementally
    maintained snapshot equals a rescan.  Computed on each call (an MD5
    over every histogram), so keep it off hot paths. *)

val predicate_selectivity : t -> Cddpd_sql.Ast.predicate -> float
(** Estimated fraction of rows satisfying the predicate.  Ranges are
    the inclusive intervals of {!Filter.predicate_interval}, so an empty
    one ([< min_int], [> max_int], a reversed [BETWEEN]) estimates 0. *)
