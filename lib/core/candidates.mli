(** Candidate index generation from a workload.

    The paper deliberately leaves candidate generation to prior work
    (Chaudhuri/Narasayya-style tools); this module implements the classic
    syntactic approach those tools start from: a single-column index for
    every column appearing in a sargable predicate, plus composite indexes
    for the highest-frequency column pairs (which, on the paper's
    workloads, recovers I(a,b) and I(c,d)).  Only integer columns are
    considered (the engine's index key restriction). *)

val from_statements :
  Cddpd_catalog.Schema.table ->
  ?composite_pairs:int ->
  Cddpd_sql.Ast.statement array ->
  Cddpd_catalog.Index_def.t list
(** [from_statements table ~composite_pairs stmts] returns candidates for
    [table], most-frequently-useful first: one single-column index per
    predicate column, then up to [composite_pairs] (default 0) two-column
    indexes pairing each of the most frequent predicate columns with the
    column most often co-selected with it (queries that filter on one
    column and project the other benefit from the covering composite). *)

val column_frequencies :
  Cddpd_catalog.Schema.table -> Cddpd_sql.Ast.statement array -> (string * int) list
(** Predicate-column occurrence counts, most frequent first (ties broken
    by name). *)

val view_candidates :
  Cddpd_catalog.Schema.table ->
  Cddpd_sql.Ast.statement array ->
  Cddpd_catalog.View_def.t list
(** One materialized-view candidate per grouping column observed in the
    workload's aggregate queries (integer columns only). *)

val structures_from_statements :
  Cddpd_catalog.Schema.table ->
  ?composite_pairs:int ->
  Cddpd_sql.Ast.statement array ->
  Cddpd_catalog.Structure.t list
(** Index candidates ({!from_statements}) followed by view candidates:
    {!structures_of_tally} applied to the statements' {!tally}. *)

(** {1 Tallies}

    The frequency-based candidates above read a workload only through
    its tally, and tallies merge: the merged tallies of several statement
    batches equal the tally of their concatenation, so a caller that
    slides a window over a statement stream (the serve loop) tallies each
    batch once and merges. *)

type tally
(** Per-column predicate occurrence counts on one table, and the set of
    columns its aggregates group by (indexable columns only). *)

val empty_tally : tally
(** The tally of no statements; the unit of {!merge}. *)

val tally : Cddpd_catalog.Schema.table -> Cddpd_sql.Ast.statement array -> tally

val tally_weighted :
  Cddpd_catalog.Schema.table -> Cddpd_sql.Ast.statement array -> weights:int array -> tally
(** [tally_weighted table statements ~weights] counts statement [i]
    [weights.(i)] times: the {!tally} of the array in which each
    statement is repeated that often.  Serve tallies each closed window
    from its cost-identity clusters, the representatives weighted by
    cluster size; members of one cluster share a cost key, which names
    the table, every predicate column and the grouping column, so this
    equals the tally of every member.  Raises [Invalid_argument] unless
    there is one positive weight per statement. *)

val merge : tally -> tally -> tally
(** [merge (tally t a) (tally t b)] is [tally t (Array.append a b)]. *)

val structures_of_tally :
  Cddpd_catalog.Schema.table -> ?composite_pairs:int -> tally -> Cddpd_catalog.Structure.t list
(** The candidates {!structures_from_statements} derives, from a tally. *)

val generate :
  Cddpd_catalog.Schema.table ->
  ?max_width:int ->
  ?max_candidates:int ->
  Cddpd_sql.Ast.statement array ->
  Cddpd_catalog.Structure.t list
(** The scaled pipeline's multi-column generator (the [--candidates] /
    [--composite-width] path).  Per SELECT it derives the column lists an
    access-path planner can exploit — the equality prefix, the prefix
    extended by the statement's range column, and the covering extension
    (every referenced column, for index-only scans) — each truncated to
    [max_width] (default 3) columns; DML contributes single-column
    candidates on its predicate columns.  The set is closed under
    prefixes and rank-adjacent candidates are merged pairwise (index
    merging), then ordered best-first by the number of statements that
    produced each column list (ties: narrower first, then by name) with
    view candidates appended, and capped at [max_candidates] (default:
    unlimited).  Deterministic: output depends only on the statements'
    order.  Increments the [candidates.generated] counter and runs under
    the [candidates.generate] span.  Raises [Invalid_argument] if
    [max_width < 1]. *)
