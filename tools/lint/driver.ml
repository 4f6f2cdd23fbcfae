(* The lint driver: walks the tree, loads each file's cmt, runs the typed
   per-file pass plus the syntactic AST pass, solves the interprocedural
   race analysis and the dead-export check, runs the filesystem rule (R5)
   and the catalogue cross-check (R6), and renders reports.

   A file whose cmt is missing, stale or unreadable is recorded in
   [cmt_errors]; the executable refuses to report on such a tree.  The
   exit-code policy lives in the executable: a run is clean iff
   [blocking] is empty. *)

module L = Lint_types
module Json = Cddpd_util.Json

type report = {
  root : string;
  config : Lint_config.t;
  findings : L.finding list;  (** every finding, waived ones included *)
  files_scanned : int;
  caller_files : int;
  cmt_errors : (string * string) list;
  obs_dynamic : int;
  r3_dirs : string list;
  warnings : string list;
}

let read_file path =
  try Some (In_channel.with_open_text path In_channel.input_all)
  with Sys_error _ -> None

(* The lib dir: R5 wants an interface for each of its modules, R9 a
   caller for each of their exports. *)
let lib_dir = "lib"

(* Root-relative .ml files below [dir], skipping dot- and underscore-
   directories (_build) and anything that is not a plain source file. *)
let ml_files ~root dir =
  let acc = ref [] in
  let rec walk rel =
    let abs = Filename.concat root rel in
    match Sys.is_directory abs with
    | exception Sys_error _ -> ()
    | false ->
        if Filename.check_suffix rel ".ml" then acc := rel :: !acc
    | true ->
        if
          let base = Filename.basename rel in
          String.length base > 0 && (base.[0] = '.' || base.[0] = '_')
        then ()
        else
          Array.iter
            (fun entry -> walk (Filename.concat rel entry))
            (try Sys.readdir abs with Sys_error _ -> [||])
  in
  walk dir;
  List.sort String.compare !acc

let run ?(config = Lint_config.default) ~root () =
  let warnings = ref [] in
  let r3_dirs =
    match config.domain_state_dirs with
    | Some dirs -> dirs
    | None ->
        if Lint_config.enabled config L.Domain_unsafe_state then begin
          let dirs = Dune_scan.domain_state_dirs ~root ~lib_dir () in
          if dirs = [] then
            warnings :=
              "domain-unsafe-state: no Parallel-linked libraries derived from \
               the dune graph; rule R3 checked nothing"
              :: !warnings;
          dirs
        end
        else []
  in
  let files dirs = List.concat_map (fun dir -> ml_files ~root dir) dirs in
  let readable rel =
    match read_file (Filename.concat root rel) with
    | None ->
        warnings := Printf.sprintf "cannot read %s; skipped" rel :: !warnings;
        None
    | some -> some
  in
  let cmt_errors = ref [] in
  let load rel source =
    match
      Cmt_loader.find ~root ~build_dirs:config.build_dirs ~path:rel ~source
    with
    | Cmt_loader.Loaded l -> Some l
    | status ->
        cmt_errors := (rel, Cmt_loader.status_reason status) :: !cmt_errors;
        None
  in
  (* Pass 1: read each file, resolve its cmt, run the syntactic rules.
     Caller-dir modules are only loaded, for R9's references. *)
  let per_file =
    List.filter_map
      (fun rel ->
        Option.map
          (fun source ->
            let ast = Rules.check_source ~config ~r3_dirs ~path:rel source in
            (rel, source, ast, load rel source))
          (readable rel))
      (files config.scan_dirs)
  in
  let callers =
    List.filter_map
      (fun rel -> Option.bind (readable rel) (load rel))
      (files Lint_config.caller_dirs)
  in
  (* Pass 2: repo-wide type declaration table, then the typed per-file
     pass (exact R1/R2 + the R7 extract for each cmt-backed module). *)
  let types = Type_safety.create () in
  List.iter
    (fun (_, _, _, loaded) ->
      match loaded with
      | Some (l : Cmt_loader.loaded) ->
          Type_safety.register_module types ~modname:l.modname l.structure
      | None -> ())
    per_file;
  let waivers_of =
    let tbl = Hashtbl.create 64 in
    List.iter (fun (rel, source, _, _) -> Hashtbl.replace tbl rel (Waiver.scan source)) per_file;
    fun rel ->
      match Hashtbl.find_opt tbl rel with
      | Some w -> w
      | None -> Waiver.scan ""
  in
  let extracts, typed_findings =
    List.fold_left
      (fun (extracts, findings) (rel, _, _, loaded) ->
        match loaded with
        | None -> (extracts, findings)
        | Some (l : Cmt_loader.loaded) ->
            let extract, fs =
              Typed_rules.run ~config ~types ~path:rel ~modname:l.modname
                l.structure
            in
            (extract :: extracts, Waiver.apply (waivers_of rel) fs @ findings))
      ([], []) per_file
  in
  (* Pass 3: interprocedural R7 solve over all extracts; findings land
     at call sites and honour the call site's waivers. *)
  let race_findings =
    if Lint_config.enabled config L.Domain_race && extracts <> [] then
      Race.solve ~config (List.rev extracts)
      |> List.map (fun (f : L.finding) ->
             match Waiver.apply (waivers_of f.file) [ f ] with
             | [ f ] -> f
             | _ -> f)
    else []
  in
  (* R9: every value a lib interface exports needs a reference from some
     other module, caller dirs included.  The interface's own waivers
     apply. *)
  let dead_findings =
    if not (Lint_config.enabled config L.Dead_export) then []
    else
      let dead =
        Dead_export.check
          (List.map
             (fun (l : Cmt_loader.loaded) -> Dead_export.uses l.structure)
             (List.filter_map (fun (_, _, _, loaded) -> loaded) per_file
             @ callers))
      in
      List.concat_map
        (fun (rel, _, _, loaded) ->
          match loaded with
          | Some (l : Cmt_loader.loaded) when Lint_config.under_dir ~dir:lib_dir rel
            -> (
              let mli = rel ^ "i" in
              match read_file (Filename.concat root mli) with
              | None -> []
              | Some source ->
                  Dead_export.exports
                    ~unit_path:(Dead_export.unit_path l.unit_name)
                    ~path:mli source
                  |> dead
                  |> Waiver.apply (Waiver.scan source))
          | _ -> [])
        per_file
  in
  let ast_findings =
    List.concat_map (fun (_, _, (r : Rules.t), _) -> r.findings) per_file
  in
  (* R5: every lib/**/*.ml needs a sibling .mli (waivable anywhere in the
     file, since the finding is about the file as a whole). *)
  let mli_findings =
    if not (Lint_config.enabled config L.Mli_coverage) then []
    else
      List.filter_map
        (fun (rel, source, _, _) ->
          if not (Lint_config.under_dir ~dir:lib_dir rel) then None
          else if Sys.file_exists (Filename.concat root (rel ^ "i")) then None
          else
            let f =
              L.finding ~file:rel ~line:1 ~rule:L.Mli_coverage
                (Printf.sprintf "%s has no interface %si; every lib module \
                                 must declare its surface" rel rel)
            in
            match Waiver.apply (Waiver.scan source) [ f ] with
            | [ f ] -> Some f
            | _ -> None)
        per_file
  in
  (* R6: catalogue cross-check; code-side findings honour the emitting
     file's waivers, doc-side findings are not waivable. *)
  let obs_findings =
    if not (Lint_config.enabled config L.Obs_catalogue_sync) then []
    else
      match read_file (Filename.concat root config.obs_doc) with
      | None ->
          [
            L.finding ~file:config.obs_doc ~line:1 ~rule:L.Obs_catalogue_sync
              (Printf.sprintf "catalogue %s is missing" config.obs_doc);
          ]
      | Some doc ->
          let literals =
            List.concat_map (fun (_, _, (r : Rules.t), _) -> r.obs) per_file
          in
          Obs_sync.check ~doc_path:config.obs_doc (Obs_sync.parse_doc doc) literals
          |> List.concat_map (fun (f : L.finding) ->
                 match
                   List.find_opt
                     (fun (rel, _, _, _) -> String.equal rel f.file)
                     per_file
                 with
                 | Some (_, source, _, _) -> Waiver.apply (Waiver.scan source) [ f ]
                 | None -> [ f ])
  in
  let findings =
    List.sort L.compare_findings
      (typed_findings @ race_findings @ dead_findings @ ast_findings
     @ mli_findings @ obs_findings)
  in
  let obs_dynamic =
    List.fold_left
      (fun acc (_, _, (r : Rules.t), _) -> acc + r.obs_dynamic)
      0 per_file
  in
  {
    root;
    config;
    findings;
    files_scanned = List.length per_file;
    caller_files = List.length callers;
    cmt_errors = List.rev !cmt_errors;
    obs_dynamic;
    r3_dirs;
    warnings = List.rev !warnings;
  }

let unwaived report =
  List.filter (fun (f : L.finding) -> not f.waived) report.findings

let waived report = List.filter (fun (f : L.finding) -> f.waived) report.findings

let blocking report = List.filter L.blocking report.findings

let render_text ?(show_waived = false) report =
  let buf = Buffer.create 1024 in
  List.iter
    (fun w -> Buffer.add_string buf (Printf.sprintf "warning: %s\n" w))
    report.warnings;
  List.iter
    (fun (f : L.finding) ->
      if (not f.waived) || show_waived then begin
        Buffer.add_string buf (L.to_line f);
        Buffer.add_char buf '\n'
      end)
    report.findings;
  Buffer.add_string buf
    (Printf.sprintf
       "cddpd-lint: %d file(s) scanned, %d caller file(s) loaded, %d \
        finding(s) (%d waived, %d blocking)\n"
       report.files_scanned report.caller_files
       (List.length report.findings)
       (List.length (waived report))
       (List.length (blocking report)));
  Buffer.contents buf

let render_json report =
  let strings l = Json.Array (List.map (fun s -> Json.String s) l) in
  let count l = Json.int (List.length l) in
  let finding (f : L.finding) =
    Json.Object
      [
        ("file", Json.String f.file); ("line", Json.int f.line); ("col", Json.int f.col);
        ("rule", Json.String (L.rule_id f.rule)); ("origin", Json.String (L.origin_id f.origin));
        ("message", Json.String f.message); ("waived", Json.Bool f.waived);
      ]
  in
  Json.to_string
    (Json.Object
       [
         ("schema", Json.String "cddpd-lint/3");
         ("root", Json.String report.root);
         ("rules", strings (List.map L.rule_id report.config.enabled));
         ("r3_dirs", strings report.r3_dirs);
         ("files_scanned", Json.int report.files_scanned);
         ("caller_files", Json.int report.caller_files);
         ( "cmt_errors",
           Json.Array
             (List.map
                (fun (path, reason) ->
                  Json.Object [ ("file", Json.String path); ("reason", Json.String reason) ])
                report.cmt_errors) );
         ("obs_dynamic_names", Json.int report.obs_dynamic);
         ("warnings", strings report.warnings);
         ("findings", Json.Array (List.map finding report.findings));
         ( "summary",
           Json.Object
             [
               ("total", count report.findings);
               ("waived", count (waived report));
               ("blocking", count (blocking report));
             ] );
       ])
  ^ "\n"
