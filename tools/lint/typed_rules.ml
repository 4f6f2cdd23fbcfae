(* The typed per-file pass: walks one module's typedtree (from its cmt)
   with [Tast_iterator] and produces

   - exact R1/R2 findings: polymorphic hash/compare *instantiated* at a
     type containing floats, functions, mutable cells or abstract types,
     repo-wide;

   - the module's R7 extract: toplevel mutable roots, per-value reference
     edges (for interprocedural reach propagation in {!Race}), and every
     [Parallel] entry-point call site with the closure's references and
     mutable captures.

   Everything here is per-module; the cross-module fixpoint lives in
   [race.ml]. *)

module L = Lint_types
module TS = Type_safety

let line_of (loc : Location.t) = loc.loc_start.pos_lnum

let col_of (loc : Location.t) = loc.loc_start.pos_cnum - loc.loc_start.pos_bol

(* -- extract vocabulary ------------------------------------------------------ *)

type ref_target =
  | Local of string  (** unqualified ident, same module *)
  | Extern of string  (** normalized "Module.value" *)

type root = {
  r_name : string;  (** qualified "Module.value" *)
  r_kind : string;  (** what makes it mutable, e.g. "ref cell" *)
  r_line : int;
  r_guarded : bool;  (** a sibling mutex follows the naming convention *)
}

type capture = {
  c_name : string;
  c_type : string;  (** rendered *)
  c_kind : string;  (** mutable components *)
}

type site = {
  s_line : int;
  s_col : int;
  s_entry : string;  (** normalized entry point, e.g. "Parallel.map_chunks" *)
  s_refs : ref_target list;  (** values the closure body references *)
  s_captures : capture list;  (** mutable locals captured from outside *)
}

type extract = {
  x_module : string;  (** short module name *)
  x_path : string;
  x_values : (string * bool * ref_target list) list;
      (** qualified name, is-function (refs propagate on call), refs *)
  x_roots : root list;
  x_sites : site list;
}

(* -- helpers ----------------------------------------------------------------- *)

(* Arrow spine: parameter types (labels kept) and final result. *)
let rec arrow_spine ty =
  match Types.get_desc ty with
  | Tarrow (lbl, a, b, _) ->
      let params, result = arrow_spine b in
      ((lbl, a) :: params, result)
  | _ -> ([], ty)

let nolabel_params params =
  List.filter_map
    (fun (lbl, ty) ->
      match lbl with Asttypes.Nolabel -> Some ty | _ -> None)
    params

let is_arrow ty =
  match Types.get_desc ty with Tarrow _ -> true | _ -> false

let hashtbl_key_of_result ty =
  match Types.get_desc ty with
  | Tconstr (p, [ k; _ ], _)
    when TS.normalize_path p = "Hashtbl.t" ->
      Some k
  | _ -> None

(* -- the per-file pass -------------------------------------------------------- *)

type state = {
  config : Lint_config.t;
  types : TS.t;
  path : string;
  modname : string;
  findings : L.finding list ref;
  sites : site list ref;
  values : (string * bool * ref_target list) list ref;
  roots : root list ref;
  (* names of module-level bindings seen so far (any nesting depth);
     used to split closure references into toplevel refs vs captures *)
  toplevel : (string, unit) Hashtbl.t;
  (* the ref sink the expression walker feeds, when inside a binding *)
  mutable sink : ref_target list ref option;
}

let add_finding st ~loc ~rule message =
  st.findings :=
    L.finding ~col:(col_of loc) ~origin:L.Typed ~file:st.path
      ~line:(line_of loc) ~rule message
    :: !(st.findings)

let record_ref st target =
  match st.sink with
  | None -> ()
  | Some sink -> if not (List.mem target !sink) then sink := target :: !sink

(* R1/R2 on one identifier occurrence, using its instantiated type. *)
let check_poly_ident st ~loc full_name (exp_type : Types.type_expr) =
  let r1 = Lint_config.enabled st.config L.Poly_hash in
  let r2 = Lint_config.enabled st.config L.Poly_compare in
  let describe ty = TS.render ty in
  match full_name with
  | "Stdlib.Hashtbl.hash" | "Stdlib.Hashtbl.seeded_hash"
  | "Stdlib.Hashtbl.hash_param"
    when r1 -> (
      let params, _ = arrow_spine exp_type in
      match List.rev (nolabel_params params) with
      | hashed :: _ -> (
          match TS.hash_key st.types ~self:st.modname hashed with
          | TS.Safe -> ()
          | TS.Unsafe reason ->
              add_finding st ~loc ~rule:L.Poly_hash
                (Printf.sprintf
                   "%s instantiated at %s, which contains %s; hash a \
                    Cost_key-style injective digest instead"
                   (TS.normalize_name full_name)
                   (describe hashed) reason))
      | [] -> ())
  | "Stdlib.Hashtbl.create" when r1 -> (
      let _, result = arrow_spine exp_type in
      match hashtbl_key_of_result result with
      | None -> ()
      | Some key -> (
          match TS.hash_key st.types ~self:st.modname key with
          | TS.Safe -> ()
          | TS.Unsafe reason ->
              add_finding st ~loc ~rule:L.Poly_hash
                (Printf.sprintf
                   "default-hash Hashtbl.create keyed on %s, which contains \
                    %s; key on strings/ints or use Hashtbl.Make with a sound \
                    hash"
                   (describe key) reason)))
  | ("Stdlib.compare" | "Stdlib.=" | "Stdlib.<>") when r2 -> (
      let params, _ = arrow_spine exp_type in
      match nolabel_params params with
      | arg :: _ -> (
          match TS.compare_arg st.types ~self:st.modname arg with
          | TS.Safe -> ()
          | TS.Unsafe reason ->
              let op =
                match full_name with
                | "Stdlib.compare" -> "compare"
                | "Stdlib.=" -> "(=)"
                | _ -> "(<>)"
              in
              add_finding st ~loc ~rule:L.Poly_compare
                (Printf.sprintf
                   "polymorphic %s instantiated at %s, which contains %s; \
                    use a dedicated comparator (Float.compare, Float.equal, \
                    M.equal) so the semantics are explicit"
                   op (describe arg) reason))
      | [] -> ())
  | _ -> ()

(* Collect, for a closure body: bound names, referenced names with their
   instantiated types, and external references. *)
let closure_contents (expr : Typedtree.expression) =
  let bound = Hashtbl.create 32 in
  let locals = Hashtbl.create 32 in
  let externs = ref [] in
  let pat_hook (type k) self (p : k Typedtree.general_pattern) =
    (match p.Typedtree.pat_desc with
    | Typedtree.Tpat_var (id, _) -> Hashtbl.replace bound (Ident.name id) ()
    | Typedtree.Tpat_alias (_, id, _) -> Hashtbl.replace bound (Ident.name id) ()
    | _ -> ());
    Tast_iterator.default_iterator.pat self p
  in
  let expr_hook self (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) ->
        let name = Ident.name id in
        if not (Hashtbl.mem locals name) then
          Hashtbl.add locals name (e.exp_type, e.exp_loc)
    | Texp_ident (p, _, _) ->
        let n = TS.normalize_path p in
        if not (List.mem n !externs) then externs := n :: !externs
    | _ -> ());
    Tast_iterator.default_iterator.expr self e
  in
  let iter =
    { Tast_iterator.default_iterator with pat = pat_hook; expr = expr_hook }
  in
  iter.expr iter expr;
  (bound, locals, List.rev !externs)

let analyze_parallel_site st ~loc ~entry (closure : Typedtree.expression) =
  let bound, locals, externs = closure_contents closure in
  let refs = ref [] in
  let captures = ref [] in
  Hashtbl.iter
    (fun name (ty, _loc) ->
      if Hashtbl.mem st.toplevel name then refs := Local name :: !refs
      else if not (Hashtbl.mem bound name) then begin
        match TS.mutable_parts st.types ~self:st.modname ty with
        | [] -> ()
        | parts ->
            captures :=
              {
                c_name = name;
                c_type = TS.render ty;
                c_kind = String.concat ", " parts;
              }
              :: !captures
      end)
    locals;
  List.iter (fun n -> refs := Extern n :: !refs) externs;
  let by_name c1 c2 = String.compare c1.c_name c2.c_name in
  st.sites :=
    {
      s_line = line_of loc;
      s_col = col_of loc;
      s_entry = entry;
      s_refs = List.rev !refs;
      s_captures = List.sort by_name !captures;
    }
    :: !(st.sites)

(* The expression iterator: R1/R2 checks, reference recording, parallel
   site detection.  Runs over every module-level binding body. *)
let expression_iterator st =
  let expr_hook self (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> (
        check_poly_ident st ~loc:e.exp_loc (Path.name p) e.exp_type;
        match p with
        | Path.Pident id ->
            let name = Ident.name id in
            if Hashtbl.mem st.toplevel name then record_ref st (Local name)
        | _ -> record_ref st (Extern (TS.normalize_path p)))
    | Texp_apply (f, args) -> (
        match f.exp_desc with
        | Texp_ident (p, _, _)
          when List.mem (TS.normalize_path p) st.config.parallel_entries
               && Lint_config.enabled st.config L.Domain_race ->
            List.iter
              (fun (lbl, arg) ->
                match (lbl, arg) with
                | Asttypes.Nolabel, Some (a : Typedtree.expression)
                  when is_arrow a.exp_type ->
                    analyze_parallel_site st ~loc:e.exp_loc
                      ~entry:(TS.normalize_path p) a
                | _ -> ())
              args
        | _ -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr self e
  in
  { Tast_iterator.default_iterator with expr = expr_hook }

(* -- module-level walk -------------------------------------------------------- *)

let binding_name (vb : Typedtree.value_binding) =
  let rec go (p : Typedtree.pattern) =
    match p.pat_desc with
    | Tpat_var (id, _) -> Some (Ident.name id)
    | Tpat_alias (p, _, _) -> go p
    | _ -> None
  in
  go vb.vb_pat

let mutex_guard_names name = [ name ^ "_mutex"; name ^ "_lock"; "mutex"; "lock" ]

let run ~(config : Lint_config.t) ~types ~path ~modname
    (str : Typedtree.structure) : extract * L.finding list =
  let st =
    {
      config;
      types;
      path;
      modname;
      findings = ref [];
      sites = ref [];
      values = ref [];
      roots = ref [];
      toplevel = Hashtbl.create 64;
      sink = None;
    }
  in
  let iter = expression_iterator st in
  let walk_expr ?sink expr =
    let saved = st.sink in
    st.sink <- sink;
    iter.expr iter expr;
    st.sink <- saved
  in
  (* One module level (toplevel of the file, or a nested [struct .. end]):
     first register binding names and mutexes, then walk bodies. *)
  let rec walk_level ~prefix items =
    let mutexes = ref [] in
    let pending_roots = ref [] in
    List.iter
      (fun (item : Typedtree.structure_item) ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun (vb : Typedtree.value_binding) ->
                match binding_name vb with
                | None ->
                    (* [let () = ...] / destructuring: walk for findings
                       and sites; refs are init-time, not reachable. *)
                    walk_expr vb.vb_expr
                | Some name ->
                    Hashtbl.replace st.toplevel name ();
                    let qualified = prefix ^ "." ^ name in
                    let ty = vb.vb_expr.exp_type in
                    if TS.is_mutex_type ty then mutexes := name :: !mutexes;
                    (match TS.mutable_parts st.types ~self:st.modname ty with
                    | [] -> ()
                    | parts ->
                        pending_roots :=
                          ( name,
                            {
                              r_name = qualified;
                              r_kind = String.concat ", " parts;
                              r_line = line_of vb.vb_loc;
                              r_guarded = false;
                            } )
                          :: !pending_roots);
                    let sink = ref [] in
                    walk_expr ~sink vb.vb_expr;
                    st.values :=
                      (qualified, is_arrow ty, List.rev !sink) :: !(st.values))
              vbs
        | Tstr_eval (e, _) -> walk_expr e
        | Tstr_module mb -> walk_module mb
        | Tstr_recmodule mbs -> List.iter walk_module mbs
        | _ -> ())
      items;
    (* Resolve the mutex naming convention over the whole level. *)
    List.iter
      (fun (name, root) ->
        let guarded =
          List.exists (fun m -> List.mem m (mutex_guard_names name)) !mutexes
        in
        st.roots := { root with r_guarded = guarded } :: !(st.roots))
      (List.rev !pending_roots)
  and walk_module (mb : Typedtree.module_binding) =
    let name =
      match mb.mb_id with Some id -> Ident.name id | None -> "_"
    in
    let rec go (me : Typedtree.module_expr) =
      match me.mod_desc with
      | Tmod_structure s -> walk_level ~prefix:name s.str_items
      | Tmod_constraint (me, _, _, _) -> go me
      | Tmod_functor (_, me) -> go me
      | _ -> ()
    in
    go mb.mb_expr
  in
  walk_level ~prefix:modname str.str_items;
  ( {
      x_module = modname;
      x_path = path;
      x_values = List.rev !(st.values);
      x_roots = List.rev !(st.roots);
      x_sites = List.rev !(st.sites);
    },
    List.rev !(st.findings) )
