(** Lint orchestration: walk the tree, load each file's cmt, run the
    typed pass (R1/R2, the R7 extract) and the syntactic rules, solve the
    interprocedural race analysis and the dead-export check (R9), render
    the report.

    Every file needs a fresh cmt: the ones that have none are listed in
    [cmt_errors], and the executable reports nothing else for such a
    tree.  The run is clean iff {!blocking} is empty — the executable
    turns that into the exit code. *)

type report = {
  root : string;
  config : Lint_config.t;
  findings : Lint_types.finding list;  (** sorted; waived ones included *)
  files_scanned : int;  (** files under [scan_dirs] *)
  caller_files : int;  (** caller-dir modules loaded for R9 *)
  cmt_errors : (string * string) list;
      (** (path, {!Cmt_loader.status_reason}) for files whose cmt is
          missing, stale or unreadable *)
  obs_dynamic : int;
      (** Obs constructor calls with non-literal names, uncheckable by R6 *)
  r3_dirs : string list;  (** resolved domain-unsafe-state scope *)
  warnings : string list;  (** configuration problems, e.g. unreadable files *)
}

val run : ?config:Lint_config.t -> root:string -> unit -> report
(** Lint the tree rooted at [root] (the repository checkout). *)

val unwaived : report -> Lint_types.finding list

val waived : report -> Lint_types.finding list

val blocking : report -> Lint_types.finding list
(** Unwaived findings — these fail the run. *)

val render_text : ?show_waived:bool -> report -> string
(** One [file:line: [rule-id] message] line per unwaived finding (all
    findings with [show_waived]), then a summary line. *)

val render_json : report -> string
(** The machine-readable report (schema ["cddpd-lint/3"]) CI archives. *)
