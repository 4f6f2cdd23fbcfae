(** Rule set, findings, and stable textual ids shared by every lint module. *)

type rule =
  | Poly_hash  (** R1: polymorphic hashing at unsound key types (typed) *)
  | Poly_compare  (** R2: polymorphic compare/(=) at unsound types (typed) *)
  | Domain_unsafe_state  (** R3: toplevel mutable state visible to domains *)
  | Lib_hygiene  (** R4: [Obj.magic] / [exit] / stdout printing inside [lib/] *)
  | Mli_coverage  (** R5: [lib/**/*.ml] without a sibling [.mli] *)
  | Obs_catalogue_sync  (** R6: obs names vs [docs/OBSERVABILITY.md] drift *)
  | Domain_race  (** R7: mutable state reachable from [Parallel] closures *)
  | Determinism  (** R8: Hashtbl iteration order / wall clock / ambient Random *)
  | Dead_export  (** R9: a [lib/] export no other module references (typed) *)
  | Parse_error  (** internal: a source file failed to parse; never toggleable *)

val all_rules : rule list
(** The nine user-facing rules, in R1..R9 order ([Parse_error] excluded). *)

val rule_id : rule -> string
(** Stable kebab-case id, e.g. ["poly-hash"] — used in output lines, waiver
    comments and [--rules]/[--disable]. *)

val rule_code : rule -> string
(** Short code, e.g. ["R1"] — accepted as an alias wherever [rule_id] is. *)

val rule_of_string : string -> rule option
(** Parse either a [rule_id] or a [rule_code], case-insensitively. *)

val rule_doc : rule -> string
(** One-line description for [--list-rules]. *)

type origin =
  | Typed  (** exact, cmt-backed analysis (R1, R2, R7, R9) *)
  | Syntactic  (** type-free rules (R3-R6, R8) *)

val origin_id : origin -> string

type finding = {
  file : string;  (** path relative to the lint root *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based *)
  rule : rule;
  message : string;
  waived : bool;  (** a matching waiver comment covers this finding *)
  origin : origin;
}

val finding :
  ?col:int ->
  ?origin:origin ->
  file:string ->
  line:int ->
  rule:rule ->
  string ->
  finding
(** Build an unwaived finding ([origin] defaults to [Syntactic]). *)

val blocking : finding -> bool
(** Unwaived: the findings that drive the exit code. *)

val compare_findings : finding -> finding -> int
(** Order by file, line, column, rule, message — the report order. *)

val to_line : finding -> string
(** Render as [file:line: [rule-id] message]. *)

