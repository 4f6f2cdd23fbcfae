(** The finding-count ratchet.  A committed [lint-baseline.json] records
    waived findings as (file, rule, message) keys with counts; a run
    whose waived set *grows* past the baseline fails, one that shrinks
    only reminds to regenerate.  Unwaived blocking findings never enter
    the baseline — they fail the run directly. *)

type entry = { file : string; rule : string; message : string; count : int }

val of_findings : Lint_types.finding list -> entry list
(** Waived findings only, aggregated by (file, rule, message), sorted. *)

val schema : string

val render : entry list -> string
(** Stable JSON, sorted by key; safe to commit. *)

val parse : string -> (entry list, string) result
(** Reads a baseline with {!Cddpd_util.Json.parse}. *)

val load : string -> (entry list, string) result

type diff = {
  grown : entry list;  (** present now, absent or smaller in the baseline *)
  shrunk : entry list;  (** in the baseline, absent or smaller now *)
}

val diff : baseline:entry list -> current:entry list -> diff

val clean : diff -> bool

val render_diff : diff -> string
