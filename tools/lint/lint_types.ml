(* Core vocabulary of the linter: the rule set, findings, and the
   stable textual ids used in output, waiver comments and CLI flags. *)

type rule =
  | Poly_hash
  | Poly_compare
  | Domain_unsafe_state
  | Lib_hygiene
  | Mli_coverage
  | Obs_catalogue_sync
  | Domain_race
  | Determinism
  | Dead_export
  | Parse_error

let all_rules =
  [
    Poly_hash;
    Poly_compare;
    Domain_unsafe_state;
    Lib_hygiene;
    Mli_coverage;
    Obs_catalogue_sync;
    Domain_race;
    Determinism;
    Dead_export;
  ]

let rule_id = function
  | Poly_hash -> "poly-hash"
  | Poly_compare -> "poly-compare"
  | Domain_unsafe_state -> "domain-unsafe-state"
  | Lib_hygiene -> "lib-hygiene"
  | Mli_coverage -> "mli-coverage"
  | Obs_catalogue_sync -> "obs-catalogue-sync"
  | Domain_race -> "domain-race"
  | Determinism -> "determinism"
  | Dead_export -> "dead-export"
  | Parse_error -> "parse-error"

let rule_code = function
  | Poly_hash -> "R1"
  | Poly_compare -> "R2"
  | Domain_unsafe_state -> "R3"
  | Lib_hygiene -> "R4"
  | Mli_coverage -> "R5"
  | Obs_catalogue_sync -> "R6"
  | Domain_race -> "R7"
  | Determinism -> "R8"
  | Dead_export -> "R9"
  | Parse_error -> "R0"

let rule_of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  List.find_opt (fun r -> rule_id r = s || String.lowercase_ascii (rule_code r) = s) all_rules

let rule_doc = function
  | Poly_hash ->
      "Hashtbl.hash / default Hashtbl.create at key types containing floats, \
       functions or abstract types (typed)"
  | Poly_compare ->
      "polymorphic compare/(=) instantiated at float-, function- or \
       abstract-carrying types (typed)"
  | Domain_unsafe_state ->
      "unsynchronized module-toplevel mutable state in Parallel-linked libraries"
  | Lib_hygiene -> "Obj.magic / exit / stdout printing inside lib/"
  | Mli_coverage -> "every lib/**/*.ml must have a sibling .mli"
  | Obs_catalogue_sync ->
      "obs metric/span literals must match docs/OBSERVABILITY.md, both ways"
  | Domain_race ->
      "closures passed into Parallel entry points reaching (or capturing) \
       unguarded mutable state (interprocedural, typed)"
  | Determinism ->
      "result-order dependence on Hashtbl iteration; wall-clock/Random use \
       outside lib/util/rng.ml in result-affecting paths"
  | Dead_export ->
      "a value a lib/**/*.mli exports that no other module references (typed)"
  | Parse_error -> "source file failed to parse (not toggleable)"

(* Where a finding came from: the cmt-backed rules (R1, R2, R7, R9) or
   the rules that never needed types (R3-R6, R8).  Both block. *)
type origin = Typed | Syntactic

let origin_id = function Typed -> "typed" | Syntactic -> "syntactic"

type finding = {
  file : string;  (** path relative to the lint root *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based *)
  rule : rule;
  message : string;
  waived : bool;
  origin : origin;
}

let finding ?(col = 0) ?(origin = Syntactic) ~file ~line ~rule message =
  { file; line; col; rule; message; waived = false; origin }

let blocking f = not f.waived

let compare_findings a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare (rule_id a.rule) (rule_id b.rule) in
        if c <> 0 then c else String.compare a.message b.message

let to_line f =
  Printf.sprintf "%s:%d: [%s] %s%s" f.file f.line (rule_id f.rule) f.message
    (if f.waived then " (waived)" else "")
