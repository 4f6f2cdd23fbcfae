(* Locating and validating the cmt artifacts dune leaves under
   [_build/default]: for a source [lib/engine/cost_cache.ml] compiled
   into library [cddpd_engine], the typed tree lives at

     _build/default/lib/engine/.cddpd_engine.objs/byte/
       cddpd_engine__Cost_cache.cmt

   (executables use [.<name>.eobjs/byte/dune__exe__<Module>.cmt]).  The
   loader scans the source file's directory for [.​*.objs]/[.​*.eobjs]
   trees in each candidate build root, matches the cmt whose mangled
   module name ends in the source's module name, and validates it
   against the source's digest — a stale cmt is worse than none, because
   line numbers and types would silently describe old code. *)

type loaded = {
  structure : Typedtree.structure;
  modname : string;  (** short module name, mangling stripped *)
  unit_name : string;
  cmt_path : string;
}

type status =
  | Loaded of loaded
  | Missing  (** no cmt found in any build root *)
  | Stale of string  (** cmt found, but its source digest mismatches *)
  | Unreadable of string  (** cmt exists but could not be loaded *)

let status_reason = function
  | Loaded _ -> "loaded"
  | Missing -> "no cmt artifact (build first: dune build @check)"
  | Stale p -> Printf.sprintf "stale cmt %s (rebuild: dune build @check)" p
  | Unreadable m -> Printf.sprintf "unreadable cmt: %s" m

let short_modname = Type_safety.strip_mangling

(* The module a cmt file name describes: basename minus extension, with
   every [lib__] mangling prefix stripped, lowercased for comparison. *)
let cmt_module_of_filename file =
  let base = Filename.remove_extension (Filename.basename file) in
  String.lowercase_ascii (short_modname base)

let readdir_sorted dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
      let l = Array.to_list entries in
      List.sort String.compare l

(* All candidate cmt paths for [module_name] under [dir]'s dune object
   trees, in deterministic order. *)
let candidate_cmts ~dir ~module_name =
  readdir_sorted dir
  |> List.concat_map (fun entry ->
         if
           String.length entry > 1
           && entry.[0] = '.'
           && (Filename.check_suffix entry ".objs"
              || Filename.check_suffix entry ".eobjs")
         then
           let byte = Filename.concat (Filename.concat dir entry) "byte" in
           readdir_sorted byte
           |> List.filter_map (fun f ->
                  if
                    Filename.check_suffix f ".cmt"
                    && cmt_module_of_filename f
                       = String.lowercase_ascii module_name
                  then Some (Filename.concat byte f)
                  else None)
         else [])

let find ~root ~build_dirs ~path ~source =
  let dir_rel = Filename.dirname path in
  let module_name = Filename.remove_extension (Filename.basename path) in
  let candidates =
    List.concat_map
      (fun build_dir ->
        let dir =
          if build_dir = "." then Filename.concat root dir_rel
          else Filename.concat (Filename.concat root build_dir) dir_rel
        in
        candidate_cmts ~dir ~module_name)
      build_dirs
  in
  match candidates with
  | [] -> Missing
  | _ ->
      let source_digest = Digest.string source in
      let rec try_all last_status = function
        | [] -> last_status
        | cmt_path :: rest -> (
            match Cmt_format.read_cmt cmt_path with
            | exception e ->
                try_all (Unreadable (Printexc.to_string e)) rest
            | info -> (
                match info.Cmt_format.cmt_annots with
                | Cmt_format.Implementation structure ->
                    let fresh =
                      match info.Cmt_format.cmt_source_digest with
                      | Some d -> Digest.equal d source_digest
                      | None -> false
                    in
                    if fresh then
                      Loaded
                        {
                          structure;
                          modname = short_modname info.Cmt_format.cmt_modname;
                          unit_name = info.Cmt_format.cmt_modname;
                          cmt_path;
                        }
                    else try_all (Stale cmt_path) rest
                | _ -> try_all (Unreadable "not an implementation cmt") rest))
      in
      try_all Missing candidates

(* -- in-process typechecking (tests, fixtures) ------------------------------ *)

let typecheck_initialized = ref false

let typecheck ~path source =
  if not !typecheck_initialized then begin
    Compmisc.init_path ();
    (* Fixtures routinely bind unused names; keep the typechecker quiet. *)
    ignore (Warnings.parse_options false "-a");
    typecheck_initialized := true
  end;
  let env = Compmisc.initial_env () in
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf path;
  match Parse.implementation lexbuf with
  | exception e -> Error ("parse error: " ^ Printexc.to_string e)
  | parsed -> (
      match Typemod.type_structure env parsed with
      | exception e -> (
          match Location.error_of_exn e with
          | Some (`Ok report) ->
              Error
                (Format.asprintf "type error: %t"
                   report.Location.main.Location.txt)
          | _ -> Error ("type error: " ^ Printexc.to_string e))
      | str, _, _, _, _ -> Ok str)

let save_cmt ~cmt_path ~modname ~sourcefile structure =
  let dir = Filename.dirname cmt_path in
  let rec mkdirs d =
    if not (Sys.file_exists d) then begin
      mkdirs (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mkdirs dir;
  let saved = !Clflags.binary_annotations in
  Clflags.binary_annotations := true;
  Fun.protect
    ~finally:(fun () -> Clflags.binary_annotations := saved)
    (fun () ->
      Cmt_format.save_cmt cmt_path modname
        (Cmt_format.Implementation structure)
        (Some sourcefile) (Compmisc.initial_env ()) None None)
