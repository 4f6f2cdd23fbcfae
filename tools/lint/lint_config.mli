(** Lint configuration: enabled rules and rule scopes.  All paths are
    relative to the lint root, '/'-separated. *)

type t = {
  enabled : Lint_types.rule list;  (** rules that run *)
  scan_dirs : string list;  (** root-relative dirs whose [.ml] files are linted *)
  domain_state_dirs : string list option;
      (** R3: dirs holding libraries reachable from [Parallel.run] worker
          domains; [None] means "derive from the dune library graph"
          (see {!Dune_scan.domain_state_dirs}) *)
  lib_hygiene_dirs : string list;  (** R4: dirs that must stay side-effect clean *)
  lib_hygiene_exempt : string list;
      (** R4: sub-dirs whose contract is stdout reporting (lib/experiments) *)
  obs_scope : string;  (** R6: dir whose Obs literals are collected *)
  obs_doc : string;  (** R6: the catalogue document *)
  build_dirs : string list;
      (** candidate roots holding dune's [_build] cmt layout, tried in
          order (each is joined with the lint root) *)
  parallel_entries : string list;
      (** R7: functions whose closure arguments run on worker domains,
          matched on the normalized last two path components *)
  determinism_dirs : string list;  (** R8: result-affecting scope *)
  determinism_exempt : string list;
      (** R8: dirs/files exempt from determinism checks (lib/obs is
          reporting-only; lib/util/rng.ml is the sanctioned RNG) *)
}

val default : t
(** The repo configuration described in [docs/LINTING.md]. *)

val caller_dirs : string list
(** R9: the dirs dune builds beyond [scan_dirs] (tests, examples, the
    serve benchmark).  Their modules count as callers; their cmts are
    loaded for references only, and no other rule looks at them. *)

val enabled : t -> Lint_types.rule -> bool

val restrict : t -> Lint_types.rule list -> t
(** Keep only the given rules enabled ([--rules]). *)

val disable : t -> Lint_types.rule list -> t
(** Turn the given rules off ([--disable]). *)

val under_dir : dir:string -> string -> bool
(** [under_dir ~dir path]: is [path] strictly below [dir]? *)

val in_dirs : string list -> string -> bool
(** [under_dir] against any of the dirs. *)

val in_scope : string list -> string -> bool
(** Like {!in_dirs}, but entries may also name an exact file. *)
