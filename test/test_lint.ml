(* Tests for cddpd_lint (tools/lint): each rule gets a positive hit, a
   clean pass and a waiver case on inline fixture snippets (typechecked
   in-process for the typed rules); R5/R6 run through the driver on
   temporary fixture trees (including a deliberate catalogue desync);
   and a final smoke test lints the real repository, asserting zero
   unwaived findings and zero dead exports at HEAD. *)

module L = Cddpd_lint_core.Lint_types
module Config = Cddpd_lint_core.Lint_config
module Rules = Cddpd_lint_core.Rules
module Waiver = Cddpd_lint_core.Waiver
module Obs_sync = Cddpd_lint_core.Obs_sync
module Driver = Cddpd_lint_core.Driver
module Dune_scan = Cddpd_lint_core.Dune_scan
module Cmt_loader = Cddpd_lint_core.Cmt_loader
module Typed_rules = Cddpd_lint_core.Typed_rules
module Type_safety = Cddpd_lint_core.Type_safety
module Race = Cddpd_lint_core.Race
module Baseline = Cddpd_lint_core.Baseline
module Dead_export = Cddpd_lint_core.Dead_export

let default_r3_dirs = [ "lib" ]

let check_source ?(config = Config.default) ?(r3_dirs = default_r3_dirs)
    ~path source =
  Rules.check_source ~config ~r3_dirs ~path source

let hits rule (t : Rules.t) =
  List.filter
    (fun (f : L.finding) -> f.rule = rule && not f.waived)
    t.findings

let count = List.length

(* -- fixture trees for the driver-level rules ----------------------------- *)

let write_file path content =
  let rec mkdirs dir =
    if not (Sys.file_exists dir) then begin
      mkdirs (Filename.dirname dir);
      Sys.mkdir dir 0o755
    end
  in
  mkdirs (Filename.dirname path);
  Out_channel.with_open_text path (fun oc -> output_string oc content)

let with_tree files f =
  let root = Filename.temp_dir "cddpd_lint_test" "" in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect
    ~finally:(fun () -> rm root)
    (fun () ->
      List.iter (fun (rel, content) -> write_file (Filename.concat root rel) content) files;
      f root)

let typecheck_exn ~path source =
  match Cmt_loader.typecheck ~path source with
  | Ok str -> str
  | Error msg -> Alcotest.failf "fixture does not typecheck: %s" msg

(* Write [source] to [path] under [root], typecheck it and save its cmt
   where dune would put it for a module of a library [x] in that dir. *)
let plant_cmt root ?(path = "lib/x/a.ml") source =
  let src_path = Filename.concat root path in
  write_file src_path source;
  let str = typecheck_exn ~path source in
  let modname =
    String.capitalize_ascii (Filename.remove_extension (Filename.basename path))
  in
  let cmt_path =
    Filename.concat root
      (Printf.sprintf "_build/default/%s/.x.objs/byte/x__%s.cmt"
         (Filename.dirname path) modname)
  in
  Cmt_loader.save_cmt ~cmt_path ~modname:("X__" ^ modname) ~sourcefile:src_path
    str

(* -- R3 domain-unsafe-state ----------------------------------------------- *)

let test_domain_unsafe_state () =
  let bad = check_source ~path:"lib/x/a.ml" "let cache = ref []\n" in
  Alcotest.(check int) "toplevel ref flagged" 1 (count (hits L.Domain_unsafe_state bad));
  let tbl = check_source ~path:"lib/x/a.ml" "let t : (int, int) Hashtbl.t = Hashtbl.create 4\n" in
  Alcotest.(check int) "toplevel Hashtbl flagged" 1
    (count (hits L.Domain_unsafe_state tbl));
  let local = check_source ~path:"lib/x/a.ml" "let f () =\n  let c = ref 0 in\n  incr c; !c\n" in
  Alcotest.(check int) "function-local ref clean" 0
    (count (hits L.Domain_unsafe_state local));
  let atomic = check_source ~path:"lib/x/a.ml" "let n = Atomic.make 0\n" in
  Alcotest.(check int) "Atomic.make clean" 0 (count (hits L.Domain_unsafe_state atomic));
  let guarded =
    check_source ~path:"lib/x/a.ml"
      "let cache = ref []\nlet cache_mutex = Mutex.create ()\n"
  in
  Alcotest.(check int) "mutex-adjacent state exempt" 0
    (count (hits L.Domain_unsafe_state guarded));
  let outside = check_source ~r3_dirs:[ "lib/core" ] ~path:"lib/sql/a.ml" "let c = ref 0\n" in
  Alcotest.(check int) "outside Parallel-linked dirs clean" 0
    (count (hits L.Domain_unsafe_state outside));
  let nested =
    check_source ~path:"lib/x/a.ml" "module M = struct\n  let s = ref 0\nend\n"
  in
  Alcotest.(check int) "nested module toplevel flagged" 1
    (count (hits L.Domain_unsafe_state nested));
  let waived =
    check_source ~path:"lib/x/a.ml"
      "(* cddpd-lint: allow domain-unsafe-state -- main-domain only *)\nlet c = ref 0\n"
  in
  Alcotest.(check int) "waiver absorbs" 0 (count (hits L.Domain_unsafe_state waived))

(* -- R4 lib-hygiene -------------------------------------------------------- *)

let test_lib_hygiene () =
  let bad =
    check_source ~path:"lib/x/a.ml"
      "let f x = Printf.printf \"%d\" x\nlet g () = exit 1\nlet h x = Obj.magic x\nlet i () = print_endline \"hi\"\n"
  in
  Alcotest.(check int) "printf/exit/magic/print_endline all flagged" 4
    (count (hits L.Lib_hygiene bad));
  let fmt =
    check_source ~path:"lib/x/a.ml" "let pp ppf x = Format.fprintf ppf \"%d\" x\n"
  in
  Alcotest.(check int) "formatter output clean" 0 (count (hits L.Lib_hygiene fmt));
  let experiments =
    check_source ~path:"lib/experiments/a.ml" "let f () = print_endline \"table\"\n"
  in
  Alcotest.(check int) "lib/experiments exempt (stdout is its contract)" 0
    (count (hits L.Lib_hygiene experiments));
  let binside = check_source ~path:"bin/a.ml" "let () = exit 0\n" in
  Alcotest.(check int) "bin/ exempt" 0 (count (hits L.Lib_hygiene binside));
  let waived =
    check_source ~path:"lib/x/a.ml"
      "(* cddpd-lint: allow lib-hygiene -- explicit stdout API *)\nlet f () = print_endline \"x\"\n"
  in
  Alcotest.(check int) "waiver absorbs" 0 (count (hits L.Lib_hygiene waived))

(* -- waiver syntax ---------------------------------------------------------- *)

let test_waiver_syntax () =
  let w = Waiver.scan "let a = 1\n(* cddpd-lint: allow poly-hash, R2 -- reason *)\nlet b = 2\n" in
  Alcotest.(check bool) "named rule on its own line" true
    (Waiver.covers w ~line:2 ~rule:L.Poly_hash);
  Alcotest.(check bool) "R-code alias accepted" true
    (Waiver.covers w ~line:2 ~rule:L.Poly_compare);
  Alcotest.(check bool) "covers the following line too" true
    (Waiver.covers w ~line:3 ~rule:L.Poly_hash);
  Alcotest.(check bool) "does not leak further down" false
    (Waiver.covers w ~line:4 ~rule:L.Poly_hash);
  Alcotest.(check bool) "other rules unaffected" false
    (Waiver.covers w ~line:2 ~rule:L.Lib_hygiene);
  let em_dash = Waiver.scan "(* cddpd-lint: allow lib-hygiene \xe2\x80\x94 reason text *)\n" in
  Alcotest.(check bool) "em-dash reason separator parsed" true
    (Waiver.covers em_dash ~line:1 ~rule:L.Lib_hygiene);
  let none = Waiver.scan "(* a normal comment mentioning allow poly-hash rules *)\n" in
  Alcotest.(check bool) "no marker, no waiver" false
    (Waiver.covers none ~line:1 ~rule:L.Poly_hash)

let test_parse_error () =
  let t = check_source ~path:"lib/x/a.ml" "let let let\n" in
  match t.findings with
  | [ f ] ->
      Alcotest.(check bool) "parse error reported as finding" true
        (f.rule = L.Parse_error)
  | fs -> Alcotest.failf "expected exactly one parse-error finding, got %d" (List.length fs)

(* -- R5 mli-coverage through the driver ------------------------------------ *)

let test_mli_coverage () =
  with_tree
    [
      ("lib/x/covered.ml", "let x = 1\n");
      ("lib/x/covered.mli", "val x : int\n");
      ("lib/x/naked.ml", "let y = 2\n");
      ( "lib/x/excused.ml",
        "(* cddpd-lint: allow mli-coverage -- generated interface tested elsewhere *)\nlet z = 3\n"
      );
      ("bin/main.ml", "let () = ()\n");
      ("docs/OBSERVABILITY.md", "# nothing\n");
    ]
    (fun root ->
      let config = { Config.default with domain_state_dirs = Some [] } in
      let report = Driver.run ~config ~root () in
      let mli =
        List.filter
          (fun (f : L.finding) -> f.rule = L.Mli_coverage && not f.waived)
          report.findings
      in
      match mli with
      | [ f ] ->
          Alcotest.(check string) "the uncovered module is flagged" "lib/x/naked.ml" f.file
      | fs -> Alcotest.failf "expected exactly 1 mli finding, got %d" (List.length fs))

(* -- R6 obs-catalogue-sync -------------------------------------------------- *)

let doc_synced =
  {|# Observability

## Metric catalogue

| metric | kind | emitted by | meaning |
|---|---|---|---|
| `demo.hits` | counter | `a.ml` | hits |
| `demo.lat_s` | histogram | `a.ml` | latency |

## Span naming convention

- `demo.solve` — one per solve;
- `optimizer.<method>` — one per method, with child `demo.solve.inner` spans.
|}

let emitter =
  {|module Registry = Cddpd_obs.Registry
let m = Registry.counter "demo.hits"
let h = Registry.histogram "demo.lat_s"
let f g = Cddpd_obs.Span.with_span "demo.solve" g
let dyn name g = Cddpd_obs.Span.with_span ("optimizer." ^ name) g
|}

let run_obs ~doc ~source =
  with_tree
    [ ("lib/x/a.ml", source); ("lib/x/a.mli", "(* empty *)\n"); ("docs/OBSERVABILITY.md", doc) ]
    (fun root ->
      let config = { Config.default with domain_state_dirs = Some [] } in
      let report = Driver.run ~config ~root () in
      ( List.filter
          (fun (f : L.finding) -> f.rule = L.Obs_catalogue_sync && not f.waived)
          report.findings,
        report ))

let test_obs_sync_clean () =
  let findings, report = run_obs ~doc:doc_synced ~source:emitter in
  Alcotest.(check int) "synced catalogue is clean" 0 (count findings);
  Alcotest.(check int) "dynamic span name tallied, not flagged" 1 report.obs_dynamic

let test_obs_sync_desync () =
  (* Deliberately desync the catalogue: drop the histogram row and add a
     stale one; both directions must fire. *)
  let doc_missing =
    {|# Observability

## Metric catalogue

| metric | kind | emitted by | meaning |
|---|---|---|---|
| `demo.hits` | counter | `a.ml` | hits |
| `demo.ghost` | counter | `gone.ml` | removed in a refactor |

## Span naming convention

- `demo.solve` — one per solve.
|}
  in
  let findings, _ = run_obs ~doc:doc_missing ~source:emitter in
  let msgs = List.map (fun (f : L.finding) -> f.message) findings in
  Alcotest.(check int) "one undocumented + one stale finding" 2 (count findings);
  Alcotest.(check bool) "undocumented metric reported" true
    (List.exists (fun m -> List.mem "demo.lat_s" [ m ] || String.length m > 0) msgs
    && List.exists
         (fun (f : L.finding) -> f.file = "lib/x/a.ml" && f.line = 3)
         findings);
  Alcotest.(check bool) "stale catalogue row reported at the doc line" true
    (List.exists
       (fun (f : L.finding) -> f.file = "docs/OBSERVABILITY.md" && f.line = 8)
       findings)

let test_obs_sync_span () =
  let doc_no_span =
    {|# Observability

## Metric catalogue

| metric | kind | emitted by | meaning |
|---|---|---|---|
| `demo.hits` | counter | `a.ml` | hits |
| `demo.lat_s` | histogram | `a.ml` | latency |

## Span naming convention

- `optimizer.<method>` — dynamic family only.
|}
  in
  let findings, _ = run_obs ~doc:doc_no_span ~source:emitter in
  Alcotest.(check int) "undocumented span literal flagged" 1 (count findings);
  Alcotest.(check bool) "wildcard matching works" true
    (Obs_sync.doc_name_matches "optimizer.<method>" "optimizer.k-aware");
  Alcotest.(check bool) "wildcard needs non-empty segment" false
    (Obs_sync.doc_name_matches "optimizer.<method>" "optimizer.")

(* -- injected violations exercise every rule end-to-end -------------------- *)

let test_each_rule_fires_through_driver () =
  with_tree
    [
      ("lib/core/hot.mli", "val f : int list -> int list\n");
      ("docs/OBSERVABILITY.md", "## Metric catalogue\n\n| `ghost.metric` | counter |\n");
    ]
    (fun root ->
      plant_cmt root
        "let t = Hashtbl.create 4\nlet f x = Hashtbl.hash x\nlet () = print_endline \"boo\"\n";
      plant_cmt root ~path:"lib/core/hot.ml" "let f xs = List.sort compare xs\n";
      let config = { Config.default with domain_state_dirs = Some [ "lib" ] } in
      let report = Driver.run ~config ~root () in
      let rules_hit =
        List.sort_uniq compare
          (List.filter_map
             (fun (f : L.finding) -> if f.waived then None else Some f.rule)
             report.findings)
      in
      List.iter
        (fun rule ->
          Alcotest.(check bool)
            (Printf.sprintf "rule %s fires on the injected violation" (L.rule_id rule))
            true (List.mem rule rules_hit))
        [
          L.Poly_hash; L.Poly_compare; L.Domain_unsafe_state; L.Lib_hygiene;
          L.Mli_coverage; L.Obs_catalogue_sync; L.Dead_export;
        ])

let test_rule_toggles () =
  with_tree
    [ ("lib/x/a.mli", "val f : 'a -> int\nval g : int ref\n");
      ("docs/OBSERVABILITY.md", "# empty\n") ]
    (fun root ->
      plant_cmt root "let f x = Hashtbl.hash x\nlet g = ref 0\n";
      let config =
        Config.restrict { Config.default with domain_state_dirs = Some [] } [ L.Poly_hash ]
      in
      let report = Driver.run ~config ~root () in
      Alcotest.(check int) "only the enabled rule reports" 1
        (count (Driver.unwaived report));
      let config =
        Config.disable { Config.default with domain_state_dirs = Some [ "lib" ] }
          [ L.Poly_hash ]
      in
      let report = Driver.run ~config ~root () in
      Alcotest.(check bool) "disabled rule is silent" true
        (List.for_all
           (fun (f : L.finding) -> f.rule <> L.Poly_hash)
           (Driver.unwaived report)))

(* -- dune graph scan -------------------------------------------------------- *)

let test_dune_scan () =
  with_tree
    [
      ("lib/util/dune", "(library\n (name x_util)\n (libraries fmt))\n");
      ("lib/util/parallel.ml", "let run f = f ()\n");
      ("lib/deep/dune", "(library\n (name x_deep)\n (libraries fmt))\n");
      ("lib/deep/d.ml", "let d = 1\n");
      ("lib/client/dune", "(library\n (name x_client)\n (libraries x_util x_deep))\n");
      ("lib/client/c.ml", "let c () = Parallel.run (fun () -> ())\n");
      ("lib/bystander/dune", "(library\n (name x_by)\n (libraries x_util))\n");
      ("lib/bystander/b.ml", "let b = 2\n");
    ]
    (fun root ->
      let dirs = Dune_scan.domain_state_dirs ~root ~lib_dir:"lib" () in
      Alcotest.(check (list string))
        "clients plus transitive deps, bystanders excluded"
        [ "lib/client"; "lib/deep"; "lib/util" ]
        dirs)

(* -- cmt loader: locate, validate, fall back -------------------------------- *)

let test_cmt_loader () =
  with_tree [] (fun root ->
      let source = "let answer = 42\n" in
      (* no cmt anywhere: Missing *)
      (match
         Cmt_loader.find ~root ~build_dirs:[ "_build/default" ]
           ~path:"lib/x/a.ml" ~source
       with
      | Cmt_loader.Missing -> ()
      | s -> Alcotest.failf "expected Missing, got %s" (Cmt_loader.status_reason s));
      (* fresh cmt: Loaded, with the mangling stripped off the modname *)
      plant_cmt root source;
      (match
         Cmt_loader.find ~root ~build_dirs:[ "_build/default" ]
           ~path:"lib/x/a.ml" ~source
       with
      | Cmt_loader.Loaded l -> Alcotest.(check string) "modname" "A" l.modname
      | s -> Alcotest.failf "expected Loaded, got %s" (Cmt_loader.status_reason s));
      (* source edited after the build: Stale, never silently used *)
      match
        Cmt_loader.find ~root ~build_dirs:[ "_build/default" ]
          ~path:"lib/x/a.ml" ~source:(source ^ "let more = 1\n")
      with
      | Cmt_loader.Stale _ -> ()
      | s -> Alcotest.failf "expected Stale, got %s" (Cmt_loader.status_reason s))

let test_strip_mangling () =
  Alcotest.(check string) "library mangling" "Cost_cache"
    (Type_safety.strip_mangling "Cddpd_engine__Cost_cache");
  Alcotest.(check string) "executable mangling" "Main"
    (Type_safety.strip_mangling "Dune__exe__Main");
  Alcotest.(check string) "single underscores survive" "Cost_cache"
    (Type_safety.strip_mangling "Cost_cache");
  Alcotest.(check string) "normalize keeps two components" "Cost_cache.t"
    (Type_safety.normalize_name "Cddpd_engine__Cost_cache.t")

(* -- typed R1/R2: the instantiated type decides ----------------------------- *)

let typed_findings ?(modname = "A") ~path source =
  let str = typecheck_exn ~path source in
  let types = Type_safety.create () in
  Type_safety.register_module types ~modname str;
  Typed_rules.run ~config:Config.default ~types ~path ~modname str

let test_typed_poly () =
  let _, findings =
    typed_findings ~path:"lib/x/a.ml"
      "let bad : (float, int) Hashtbl.t = Hashtbl.create 16\n\
       let ok : (string, int) Hashtbl.t = Hashtbl.create 16\n\
       let feq (a : float) (b : float) = a = b\n\
       let ieq (a : int) (b : int) = a = b\n\
       let h x = Hashtbl.hash (x : float)\n"
  in
  let by rule = List.filter (fun (f : L.finding) -> f.rule = rule) findings in
  Alcotest.(check int) "float-keyed create + float hash flagged" 2
    (count (by L.Poly_hash));
  Alcotest.(check int) "float (=) flagged, int (=) clean" 1
    (count (by L.Poly_compare));
  List.iter
    (fun (f : L.finding) ->
      Alcotest.(check bool) "typed findings carry the Typed origin" true
        (f.origin = L.Typed))
    findings;
  (* records resolved through the same-unit declaration table *)
  let _, record_findings =
    typed_findings ~path:"lib/x/a.ml"
      "type k = { id : int; name : string }\n\
       let tbl : (k, int) Hashtbl.t = Hashtbl.create 16\n\
       type fk = { w : float }\n\
       let bad : (fk, int) Hashtbl.t = Hashtbl.create 16\n"
  in
  Alcotest.(check int) "concrete record key safe, float field unsafe" 1
    (count record_findings);
  (* one input per case: the instantiated type decides *)
  let flagged rule source =
    let _, fs = typed_findings ~path:"lib/x/a.ml" source in
    count (List.filter (fun (f : L.finding) -> f.rule = rule) fs)
  in
  List.iter
    (fun (what, rule, expected, source) ->
      Alcotest.(check int) what expected (flagged rule source))
    [
      ("Hashtbl.hash at a type variable", L.Poly_hash, 1,
       "let f x = Hashtbl.hash x\n");
      ("Hashtbl.hash at int", L.Poly_hash, 0,
       "let f (x : int) = Hashtbl.hash x\n");
      ("seeded_hash at float", L.Poly_hash, 1,
       "let f (x : float) = Hashtbl.seeded_hash 7 x\n");
      ("default-hash create keyed on an abstract type", L.Poly_hash, 1,
       "let tbl : (Buffer.t, int) Hashtbl.t = Hashtbl.create 4\n");
      ("Hashtbl.Make table", L.Poly_hash, 0,
       "module H = Hashtbl.Make (String)\nlet u : int H.t = H.create 4\n");
      ("bare compare at float", L.Poly_compare, 1,
       "let f (xs : float list) = List.sort compare xs\n");
      ("bare compare at int", L.Poly_compare, 0,
       "let f (xs : int list) = List.sort compare xs\n");
      ("Int.compare", L.Poly_compare, 0,
       "let f xs = List.sort Int.compare xs\n");
      ("(<>) on float arithmetic", L.Poly_compare, 1,
       "let f a b c = a +. b <> c\n");
      ("(=) on a float literal", L.Poly_compare, 1, "let f x = x = 0.0\n");
    ]

(* -- R7: extraction and the cross-module fixpoint --------------------------- *)

let test_typed_extract_site () =
  let extract, _ =
    typed_findings ~path:"lib/x/a.ml"
      "module Parallel = struct let map_chunks f = f () end\n\
       let counter = ref 0\n\
       let bump () = incr counter\n\
       let run () = Parallel.map_chunks (fun () -> bump ())\n"
  in
  Alcotest.(check int) "one mutable root extracted" 1
    (count extract.Typed_rules.x_roots);
  let root = List.hd extract.Typed_rules.x_roots in
  Alcotest.(check string) "root qualified" "A.counter" root.Typed_rules.r_name;
  Alcotest.(check bool) "no mutex sibling: unguarded" false
    root.Typed_rules.r_guarded;
  Alcotest.(check int) "one Parallel site" 1 (count extract.Typed_rules.x_sites);
  let findings = Race.solve ~config:Config.default [ extract ] in
  Alcotest.(check int) "closure reaches the root through bump" 1 (count findings);
  (* the mutex naming convention guards the root *)
  let guarded, _ =
    typed_findings ~path:"lib/x/a.ml"
      "module Parallel = struct let map_chunks f = f () end\n\
       let counter = ref 0\n\
       let counter_mutex = Mutex.create ()\n\
       let bump () = incr counter\n\
       let run () = Parallel.map_chunks (fun () -> bump ())\n"
  in
  Alcotest.(check int) "mutex-guarded root produces no finding" 0
    (count (Race.solve ~config:Config.default [ guarded ]))

let test_race_cross_module () =
  (* module A holds the state and a mutator; module B passes the mutator
     to a Parallel entry point.  The fixpoint must carry reachability
     across the module boundary. *)
  let a =
    {
      Typed_rules.x_module = "A";
      x_path = "lib/x/a.ml";
      x_values =
        [
          ("A.bump", true, [ Typed_rules.Local "state" ]);
          ("A.state", false, []);
          ("A.limit", false, [ Typed_rules.Local "state" ]);
        ];
      x_roots =
        [
          {
            Typed_rules.r_name = "A.state";
            r_kind = "ref cell";
            r_line = 1;
            r_guarded = false;
          };
        ];
      x_sites = [];
    }
  in
  let site refs =
    {
      Typed_rules.s_line = 5;
      s_col = 2;
      s_entry = "Parallel.map_chunks";
      s_refs = refs;
      s_captures = [];
    }
  in
  let b refs =
    {
      Typed_rules.x_module = "B";
      x_path = "lib/x/b.ml";
      x_values = [];
      x_roots = [];
      x_sites = [ site refs ];
    }
  in
  let reached = Race.solve ~config:Config.default [ a; b [ Typed_rules.Extern "A.bump" ] ] in
  Alcotest.(check int) "function ref propagates across modules" 1 (count reached);
  (match reached with
  | [ f ] ->
      Alcotest.(check string) "finding lands at the call site" "lib/x/b.ml" f.file;
      let contains needle hay =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "message names the reached root" true
        (contains "A.state" f.message)
  | _ -> ());
  (* a non-function value referencing the root does not propagate *)
  let via_value = Race.solve ~config:Config.default [ a; b [ Typed_rules.Extern "A.limit" ] ] in
  Alcotest.(check int) "plain-value ref does not propagate reach" 0
    (count via_value)

(* -- R9 dead-export ------------------------------------------------------------ *)

(* Caller fixtures typecheck against the stdlib alone, so each carries a
   stand-in for library [Cddpd_x]; paths through it canonicalize exactly
   as paths through the real library would. *)
let stub_library =
  "module Cddpd_x = struct\n\
  \  module Counter = struct\n\
  \    let orphan () = ()\n\
  \    let called () = ()\n\
  \    let at_init () = ()\n\
  \    let via_alias () = ()\n\
  \    let from_nested () = ()\n\
  \    let self_only () = ()\n\
  \    let waived () = ()\n\
  \    module Sub = struct let deep () = () end\n\
  \  end\n\
  \  module Key = struct\n\
  \    type t = int\n\
  \    let compare = Int.compare\n\
  \    let pp ppf = Format.pp_print_int ppf\n\
  \  end\n\
   end\n"

let counter_mli =
  "val orphan : unit -> unit\n\
   val called : unit -> unit\n\
   val at_init : unit -> unit\n\
   val via_alias : unit -> unit\n\
   val from_nested : unit -> unit\n\
   val self_only : unit -> unit\n\
   (* cddpd-lint: allow dead-export -- kept for interactive use *)\n\
   val waived : unit -> unit\n\
   module Sub : sig\n\
  \  val deep : unit -> unit\n\
   end\n"

let test_dead_export () =
  let uses ?(stub = true) source =
    Dead_export.uses
      (typecheck_exn ~path:"test/caller.ml"
         ((if stub then stub_library else "") ^ source))
  in
  let callers =
    [
      uses "let go () = Cddpd_x.Counter.called ()\n";
      uses "let () = Cddpd_x.Counter.at_init ()\n";
      uses "module Obs = Cddpd_x\nlet tick () = Obs.Counter.via_alias ()\n";
      uses
        "module Inner = struct\n\
        \  let f () = Cddpd_x.Counter.from_nested ()\n\
         end\n";
      uses "let d () = Cddpd_x.Counter.Sub.deep ()\n";
      uses "module Keys = Set.Make (Cddpd_x.Key)\n";
      (* the module itself: its own references are unqualified *)
      uses ~stub:false
        "let self_only () = ()\nlet orphan () = self_only ()\n\
         let waived () = ()\n";
    ]
  in
  let exports =
    Dead_export.exports ~unit_path:(Dead_export.unit_path "Cddpd_x__Counter")
      ~path:"lib/x/counter.mli" counter_mli
  in
  Alcotest.(check int) "every val, nested sig included" 8 (count exports);
  let findings =
    Waiver.apply (Waiver.scan counter_mli) (Dead_export.check callers exports)
  in
  let flagged =
    List.filter_map
      (fun (f : L.finding) ->
        if f.waived then None else Some (List.hd (String.split_on_char ' ' f.message)))
      findings
  in
  Alcotest.(check (list string))
    "unreferenced and self-only exports flagged; other callers, let () \
     bodies, aliases and nested modules count"
    [ "Cddpd_x.Counter.orphan"; "Cddpd_x.Counter.self_only" ]
    flagged;
  (match List.filter (fun (f : L.finding) -> f.waived) findings with
  | [ f ] ->
      Alcotest.(check int) "the waiver covers the val below it" 8 f.line;
      Alcotest.(check bool) "a waived export does not block" false (L.blocking f)
  | fs -> Alcotest.failf "expected one waived finding, got %d" (count fs));
  (* a functor argument uses what the parameter requires, not all of it *)
  let key_mli = "type t\nval compare : t -> t -> int\nval pp : Format.formatter -> t -> unit\n" in
  Alcotest.(check (list string)) "Set.Make (Key) uses Key.compare only"
    [ "Cddpd_x.Key.pp" ]
    (List.map
       (fun (f : L.finding) -> List.hd (String.split_on_char ' ' f.message))
       (Dead_export.check callers
          (Dead_export.exports ~unit_path:[ "Cddpd_x"; "Key" ]
             ~path:"lib/x/key.mli" key_mli)));
  Alcotest.(check (list string)) "dune mangling splits into segments"
    [ "Cddpd_obs"; "Counter" ]
    (Dead_export.unit_path "Cddpd_obs__Counter")

(* -- R8 determinism --------------------------------------------------------- *)

let test_determinism () =
  let fold =
    check_source ~path:"lib/core/a.ml"
      "let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []\n"
  in
  Alcotest.(check int) "Hashtbl.fold flagged" 1 (count (hits L.Determinism fold));
  let rand = check_source ~path:"lib/core/a.ml" "let f () = Random.int 10\n" in
  Alcotest.(check int) "ambient Random flagged" 1 (count (hits L.Determinism rand));
  let clock =
    check_source ~path:"lib/core/a.ml" "let f () = Unix.gettimeofday ()\n"
  in
  Alcotest.(check int) "wall clock flagged" 1 (count (hits L.Determinism clock));
  let rng = check_source ~path:"lib/util/rng.ml" "let f () = Random.int 10\n" in
  Alcotest.(check int) "lib/util/rng.ml is the sanctioned source" 0
    (count (hits L.Determinism rng));
  let obs = check_source ~path:"lib/obs/t.ml" "let f () = Unix.gettimeofday ()\n" in
  Alcotest.(check int) "lib/obs is reporting-only, exempt" 0
    (count (hits L.Determinism obs));
  let outside = check_source ~path:"bin/a.ml" "let f () = Random.int 10\n" in
  Alcotest.(check int) "outside lib/ not in scope" 0
    (count (hits L.Determinism outside));
  let waived =
    check_source ~path:"lib/core/a.ml"
      "(* cddpd-lint: allow determinism -- fold-then-sort *)\n\
       let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []\n"
  in
  Alcotest.(check int) "waiver absorbs" 0 (count (hits L.Determinism waived))

(* -- baseline ratchet -------------------------------------------------------- *)

let waived_finding ~file ~rule ~line message =
  { (L.finding ~file ~line ~rule message) with L.waived = true }

let test_baseline_roundtrip () =
  let findings =
    [
      waived_finding ~file:"lib/a.ml" ~rule:L.Determinism ~line:3 "msg one";
      waived_finding ~file:"lib/a.ml" ~rule:L.Determinism ~line:9 "msg one";
      waived_finding ~file:"lib/b.ml" ~rule:L.Domain_race ~line:1 "msg \"two\"";
      L.finding ~file:"lib/c.ml" ~line:2 ~rule:L.Poly_hash "unwaived: excluded";
    ]
  in
  let entries = Baseline.of_findings findings in
  Alcotest.(check int) "aggregated by (file, rule, message)" 2 (count entries);
  Alcotest.(check int) "counts accumulate" 2
    (List.find (fun (e : Baseline.entry) -> e.file = "lib/a.ml") entries).Baseline.count;
  (match Baseline.parse (Baseline.render entries) with
  | Ok parsed ->
      Alcotest.(check bool) "render/parse roundtrip (quotes escaped)" true
        (parsed = entries)
  | Error msg -> Alcotest.failf "roundtrip parse failed: %s" msg);
  (match Baseline.parse "{ not a baseline }" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must not parse");
  match Baseline.load "/nonexistent/lint-baseline.json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file must not load"

let test_baseline_diff () =
  let e ~file ~count =
    { Baseline.file; rule = "determinism"; message = "m"; count }
  in
  let baseline = [ e ~file:"lib/a.ml" ~count:2; e ~file:"lib/b.ml" ~count:1 ] in
  let unchanged = Baseline.diff ~baseline ~current:baseline in
  Alcotest.(check bool) "identical sets are clean" true (Baseline.clean unchanged);
  let grown =
    Baseline.diff ~baseline
      ~current:[ e ~file:"lib/a.ml" ~count:3; e ~file:"lib/b.ml" ~count:1 ]
  in
  Alcotest.(check bool) "count growth is growth" false (Baseline.clean grown);
  Alcotest.(check int) "one grown entry" 1 (count grown.Baseline.grown);
  let shrunk =
    Baseline.diff ~baseline ~current:[ e ~file:"lib/a.ml" ~count:2 ]
  in
  Alcotest.(check bool) "burn-down alone stays clean" true
    (shrunk.Baseline.grown = []);
  Alcotest.(check int) "one shrunk entry to regenerate away" 1
    (count shrunk.Baseline.shrunk)

(* -- the real repository lints clean at HEAD -------------------------------- *)

let repo_root () =
  let rec up dir n =
    if n = 0 then None
    else if
      Sys.file_exists (Filename.concat dir "dune-project")
      && Sys.file_exists (Filename.concat dir "docs/OBSERVABILITY.md")
      && Sys.is_directory (Filename.concat dir "lib")
    then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent (n - 1)
  in
  up (Sys.getcwd ()) 8

let test_repo_smoke () =
  match repo_root () with
  | None -> () (* source tree not visible from the test sandbox; skip *)
  | Some root ->
      let report = Driver.run ~root () in
      List.iter
        (fun (file, reason) -> Printf.eprintf "no cmt: %s: %s\n" file reason)
        report.cmt_errors;
      Alcotest.(check int) "every module has a fresh cmt (dune build @check)"
        0
        (count report.cmt_errors);
      Alcotest.(check int) "no dead exports, waived or not" 0
        (count
           (List.filter
              (fun (f : L.finding) -> f.rule = L.Dead_export)
              report.findings));
      Alcotest.(check bool) "test, example and perfbench modules count as callers"
        true
        (report.caller_files > 20);
      let blocking = Driver.blocking report in
      List.iter (fun f -> Printf.eprintf "unexpected: %s\n" (L.to_line f)) blocking;
      Alcotest.(check int) "repository lints clean (fix or waive new findings)" 0
        (count blocking);
      Alcotest.(check bool) "a healthy scan covers the whole tree" true
        (report.files_scanned > 60);
      Alcotest.(check bool) "R3 scope derived from the dune graph" true
        (List.mem "lib/graph" report.r3_dirs && List.mem "lib/obs" report.r3_dirs);
      (* the committed ratchet matches reality in the growth direction *)
      match Baseline.load (Filename.concat root "lint-baseline.json") with
      | Error msg -> Alcotest.failf "lint-baseline.json unreadable: %s" msg
      | Ok baseline ->
          let current = Baseline.of_findings report.findings in
          let d = Baseline.diff ~baseline ~current in
          List.iter
            (fun (e : Baseline.entry) ->
              Printf.eprintf "ratchet: %s [%s] x%d\n" e.file e.rule e.count)
            d.Baseline.grown;
          Alcotest.(check int)
            "no waived findings beyond the committed baseline (make lint-update-baseline)"
            0
            (count d.Baseline.grown)

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "R3 domain-unsafe-state" `Quick test_domain_unsafe_state;
          Alcotest.test_case "R4 lib-hygiene" `Quick test_lib_hygiene;
          Alcotest.test_case "waiver syntax" `Quick test_waiver_syntax;
          Alcotest.test_case "parse error" `Quick test_parse_error;
        ] );
      ( "typed",
        [
          Alcotest.test_case "cmt loader fallback ladder" `Quick test_cmt_loader;
          Alcotest.test_case "dune name mangling" `Quick test_strip_mangling;
          Alcotest.test_case "typed R1/R2" `Quick test_typed_poly;
          Alcotest.test_case "R7 extraction and guards" `Quick test_typed_extract_site;
          Alcotest.test_case "R7 cross-module fixpoint" `Quick test_race_cross_module;
          Alcotest.test_case "R8 determinism" `Quick test_determinism;
          Alcotest.test_case "baseline roundtrip" `Quick test_baseline_roundtrip;
          Alcotest.test_case "baseline diff" `Quick test_baseline_diff;
          Alcotest.test_case "R9 dead-export" `Quick test_dead_export;
        ] );
      ( "driver",
        [
          Alcotest.test_case "R5 mli-coverage" `Quick test_mli_coverage;
          Alcotest.test_case "R6 synced catalogue" `Quick test_obs_sync_clean;
          Alcotest.test_case "R6 deliberate desync" `Quick test_obs_sync_desync;
          Alcotest.test_case "R6 span literals" `Quick test_obs_sync_span;
          Alcotest.test_case "all rules fire" `Quick test_each_rule_fires_through_driver;
          Alcotest.test_case "rule toggles" `Quick test_rule_toggles;
          Alcotest.test_case "dune graph scan" `Quick test_dune_scan;
        ] );
      ("repo", [ Alcotest.test_case "HEAD lints clean" `Quick test_repo_smoke ]);
    ]
