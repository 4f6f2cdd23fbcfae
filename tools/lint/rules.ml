(* The per-file AST pass: parses one implementation with compiler-libs
   and walks the parsetree with Ast_iterator, producing R3, R4 and R8
   findings plus the Obs name literals that R6 cross-checks against the
   catalogue.  Everything here is purely syntactic; the rules that need
   types (R1, R2, R7, R9) read cmts instead. *)

open Parsetree
module L = Lint_types

type obs_kind = Metric | Span

type obs_literal = { kind : obs_kind; name : string; file : string; line : int }

type t = {
  findings : L.finding list;
  obs : obs_literal list;
  obs_dynamic : int;  (** Obs constructor calls with a non-literal name *)
}

let line_of (loc : Location.t) = loc.loc_start.pos_lnum

let col_of (loc : Location.t) = loc.loc_start.pos_cnum - loc.loc_start.pos_bol

let finding ~path ~loc ~rule message =
  L.finding ~col:(col_of loc) ~file:path ~line:(line_of loc) ~rule message

let ident_path e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> ( try Some (Longident.flatten txt) with _ -> None)
  | _ -> None

let last2 = function
  | [] -> None
  | [ x ] -> Some ("", x)
  | path ->
      let rec go = function
        | [ a; b ] -> (a, b)
        | _ :: rest -> go rest
        | [] -> assert false
      in
      Some (go path)

(* Strip type annotations so [let x : t = ref ...] still matches. *)
let rec peel e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> peel e
  | _ -> e

(* -- R3: module-toplevel mutable state ------------------------------------ *)

let mutable_ctor e =
  match (peel e).pexp_desc with
  | Pexp_apply (f, _) -> (
      match ident_path f with
      | Some ([ "ref" ] | [ "Stdlib"; "ref" ]) -> Some "ref"
      | Some path -> (
          match last2 path with
          | Some (("Hashtbl" | "Queue" | "Stack" | "Buffer" | "Weak"), "create") ->
              Some (String.concat "." path)
          | Some ("Array", ("make" | "init" | "create_float" | "make_matrix"))
          | Some ("Bytes", ("create" | "make")) ->
              Some (String.concat "." path)
          | _ -> None)
      | None -> None)
  | _ -> None

let is_mutex_create e =
  match (peel e).pexp_desc with
  | Pexp_apply (f, _) -> (
      match ident_path f with
      | Some path -> ( match last2 path with Some ("Mutex", "create") -> true | _ -> false)
      | None -> false)
  | _ -> false

let binding_name vb =
  let rec go p =
    match p.ppat_desc with
    | Ppat_var { txt; _ } -> Some txt
    | Ppat_constraint (p, _) -> go p
    | _ -> None
  in
  go vb.pvb_pat

(* Walk the structure-item spine (including nested [module X = struct]),
   flagging toplevel bindings built with a mutable constructor unless a
   sibling mutex binding guards them by naming convention. *)
let rec check_toplevel_state ~path structure acc =
  let candidates = ref [] in
  let mutexes = ref [] in
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              match binding_name vb with
              | None -> ()
              | Some name ->
                  if is_mutex_create vb.pvb_expr then mutexes := name :: !mutexes
                  else begin
                    match mutable_ctor vb.pvb_expr with
                    | Some ctor -> candidates := (name, ctor, vb.pvb_loc) :: !candidates
                    | None -> ()
                  end)
            vbs
      | Pstr_module { pmb_expr; _ } -> check_module_expr ~path pmb_expr acc
      | Pstr_recmodule mbs ->
          List.iter (fun mb -> check_module_expr ~path mb.pmb_expr acc) mbs
      | _ -> ())
    structure;
  let guarded name =
    List.exists
      (fun m ->
        m = name ^ "_mutex" || m = name ^ "_lock" || m = "mutex" || m = "lock")
      !mutexes
  in
  List.iter
    (fun (name, ctor, loc) ->
      if not (guarded name) then
        acc :=
          finding ~path ~loc ~rule:L.Domain_unsafe_state
            (Printf.sprintf
               "module-toplevel mutable state `%s' (%s) in a library linked by \
                Parallel clients; use Atomic, guard with a `%s_mutex' sibling, \
                or waive with the domain-safety argument"
               name ctor name)
          :: !acc)
    (List.rev !candidates)

and check_module_expr ~path me acc =
  match me.pmod_desc with
  | Pmod_structure s -> check_toplevel_state ~path s acc
  | Pmod_constraint (me, _) -> check_module_expr ~path me acc
  | Pmod_functor (_, me) -> check_module_expr ~path me acc
  | _ -> ()

(* -- the expression-level rules ------------------------------------------- *)

let print_names =
  [
    "print_endline"; "print_string"; "print_newline"; "print_char"; "print_int";
    "print_float"; "print_bytes";
  ]

let check_expressions ~(config : Lint_config.t) ~path structure acc obs
    obs_dynamic =
  let r8 =
    Lint_config.enabled config L.Determinism
    && Lint_config.in_scope config.determinism_dirs path
    && not (Lint_config.in_scope config.determinism_exempt path)
  in
  let r4 =
    Lint_config.enabled config L.Lib_hygiene
    && Lint_config.in_dirs config.lib_hygiene_dirs path
    && not (Lint_config.in_dirs config.lib_hygiene_exempt path)
  in
  let collect_obs = Lint_config.under_dir ~dir:config.obs_scope path in
  let add ~loc ~rule message = acc := finding ~path ~loc ~rule message :: !acc in
  let on_ident ~loc txt =
    let path_parts = try Longident.flatten txt with _ -> [] in
    (if r8 then
       match last2 path_parts with
       | Some ("Hashtbl", (("fold" | "iter") as fn)) ->
           add ~loc ~rule:L.Determinism
             (Printf.sprintf
                "Hashtbl.%s visits bindings in hash-bucket order, which varies \
                 with insertion history; sort the keys first, or waive with an \
                 argument that the accumulation is order-insensitive"
                fn)
       | Some ("Random", fn) ->
           add ~loc ~rule:L.Determinism
             (Printf.sprintf
                "Random.%s uses ambient global state; thread the seeded \
                 Util.Rng.t through instead"
                fn)
       | Some ("Unix", (("gettimeofday" | "time") as fn)) ->
           add ~loc ~rule:L.Determinism
             (Printf.sprintf
                "Unix.%s reads the wall clock inside lib/; take timestamps as \
                 parameters or confine timing to lib/obs"
                fn)
       | Some ("Sys", "time") ->
           add ~loc ~rule:L.Determinism
             "Sys.time reads the process clock inside lib/; take timestamps as \
              parameters or confine timing to lib/obs"
       | _ -> ());
    if r4 then
      match path_parts with
      | [ "Obj"; "magic" ] ->
          add ~loc ~rule:L.Lib_hygiene "Obj.magic inside lib/ defeats the type system"
      | [ "exit" ] | [ "Stdlib"; "exit" ] ->
          add ~loc ~rule:L.Lib_hygiene
            "exit inside lib/; raise and let the binary decide the exit code"
      | [ "Printf"; "printf" ] | [ "Format"; "printf" ] ->
          add ~loc ~rule:L.Lib_hygiene
            "stdout printing inside lib/; return data or take a formatter"
      | [ id ] when List.mem id print_names ->
          add ~loc ~rule:L.Lib_hygiene
            (Printf.sprintf
               "%s pollutes stdout inside lib/; return data or take a formatter" id)
      | _ -> ()
  in
  let on_apply ~loc f args =
    if collect_obs then
      let record kind =
        match args with
        | (_, { pexp_desc = Pexp_constant (Pconst_string (name, _, _)); _ }) :: _ ->
            obs := { kind; name; file = path; line = line_of loc } :: !obs
        | _ :: _ -> incr obs_dynamic
        | [] -> ()
      in
      match ident_path f with
      | Some p -> (
          match last2 p with
          | Some ("Registry", ("counter" | "histogram")) -> record Metric
          | Some (_, "with_span") -> record Span
          | _ -> ())
      | None -> ()
  in
  let iter =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> on_ident ~loc:e.pexp_loc txt
          | Pexp_apply (f, args) -> on_apply ~loc:e.pexp_loc f args
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  iter.structure iter structure

let parse_impl ~path source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf path;
  Parse.implementation lexbuf

let check_source ~config ~r3_dirs ~path source =
  let acc = ref [] in
  let obs = ref [] in
  let obs_dynamic = ref 0 in
  (match parse_impl ~path source with
  | exception exn ->
      let line, msg =
        match Location.error_of_exn exn with
        | Some (`Ok report) ->
            let loc =
              match report.Location.main.Location.loc with l -> l.Location.loc_start
            in
            ( loc.Lexing.pos_lnum,
              Format.asprintf "%t" report.Location.main.Location.txt )
        | _ -> (1, Printexc.to_string exn)
      in
      acc :=
        [ L.finding ~file:path ~line ~rule:L.Parse_error ("cannot parse: " ^ msg) ]
  | structure ->
      check_expressions ~config ~path structure acc obs obs_dynamic;
      if
        Lint_config.enabled config L.Domain_unsafe_state
        && Lint_config.in_dirs r3_dirs path
      then check_toplevel_state ~path structure acc);
  let findings = Waiver.apply (Waiver.scan source) (List.rev !acc) in
  { findings; obs = List.rev !obs; obs_dynamic = !obs_dynamic }
