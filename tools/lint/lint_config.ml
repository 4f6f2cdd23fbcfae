(* Lint configuration: which rules run and where each rule looks.  Paths
   are relative to the lint root and use '/' separators; a "dir" entry
   matches any file below it, scope lists may also name individual
   files. *)

type t = {
  enabled : Lint_types.rule list;
  scan_dirs : string list;
  domain_state_dirs : string list option;
  lib_hygiene_dirs : string list;
  lib_hygiene_exempt : string list;
  obs_scope : string;
  obs_doc : string;
  build_dirs : string list;
  parallel_entries : string list;
  determinism_dirs : string list;
  determinism_exempt : string list;
}

let default =
  {
    enabled = Lint_types.all_rules;
    scan_dirs = [ "lib"; "bin"; "bench"; "tools" ];
    domain_state_dirs = None;
    lib_hygiene_dirs = [ "lib" ];
    lib_hygiene_exempt = [ "lib/experiments" ];
    obs_scope = "lib";
    obs_doc = "docs/OBSERVABILITY.md";
    (* Candidate roots holding dune's cmt artifacts, tried in order.  "."
       covers running inside _build/default (the @lint alias); the second
       covers running from the repository root after a build. *)
    build_dirs = [ "."; "_build/default" ];
    (* Entry points whose closure arguments run on worker domains.  Names
       are matched on the normalized last two path components, so both
       [Cddpd_util.Parallel.for_] and a local [Parallel.for_] match. *)
    parallel_entries =
      [ "Parallel.map_chunks"; "Parallel.for_"; "Domain.spawn" ];
    (* R8 scope: paths whose outputs are part of a result the repo claims
       is deterministic.  lib/obs is reporting-only and exempt;
       lib/util/rng.ml is the one sanctioned randomness source. *)
    determinism_dirs = [ "lib" ];
    determinism_exempt = [ "lib/obs"; "lib/util/rng.ml" ];
  }

(* Every other dir dune builds: a value only a test, an example or the
   serve benchmark calls still has a caller. *)
let caller_dirs = [ "test"; "examples"; "perfbench" ]

let enabled t rule = List.mem rule t.enabled

let restrict t rules = { t with enabled = List.filter (fun r -> List.mem r rules) t.enabled }

let disable t rules = { t with enabled = List.filter (fun r -> not (List.mem r rules)) t.enabled }

let normalize path = String.map (fun c -> if c = '\\' then '/' else c) path

let under_dir ~dir path =
  let dir = normalize dir and path = normalize path in
  let dl = String.length dir in
  String.length path > dl
  && String.sub path 0 dl = dir
  && (path.[dl] = '/' || dir = "")

let in_dirs dirs path = List.exists (fun dir -> under_dir ~dir path) dirs

(* Scope lists that may mix directories and single files. *)
let in_scope entries path =
  List.exists
    (fun entry -> normalize entry = normalize path || under_dir ~dir:entry path)
    entries
