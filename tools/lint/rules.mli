(** The per-file AST pass: rules R3 (domain-unsafe-state), R4
    (lib-hygiene) and R8 (determinism), plus collection of the Obs name
    literals that R6 checks against the catalogue.

    Purely syntactic: sources are parsed with compiler-libs
    ([Parse.implementation]) and walked with [Ast_iterator]; nothing is
    typechecked here.  Files that fail to parse yield a single
    [Parse_error] finding instead of crashing the run. *)

type obs_kind = Metric | Span

type obs_literal = { kind : obs_kind; name : string; file : string; line : int }

type t = {
  findings : Lint_types.finding list;
      (** waiver-annotated, in source order *)
  obs : obs_literal list;
      (** string literals passed to [Registry.counter]/[Registry.histogram]
          and [Span.with_span], for files under the R6 scope *)
  obs_dynamic : int;
      (** Obs constructor calls whose name argument is not a string
          literal — R6 cannot check these (e.g. ["optimizer." ^ method]) *)
}

val check_source :
  config:Lint_config.t ->
  r3_dirs:string list ->
  path:string ->
  string ->
  t
(** Lint one implementation file.  [path] is root-relative and decides
    which rules apply; [r3_dirs] is the resolved R3 scope (see
    {!Dune_scan.domain_state_dirs}).  Waivers in the source are applied
    before returning. *)
