(* R9 dead-export.  Each loaded module contributes the canonical names it
   references; each lib interface contributes its exported values; an
   export no module references is a finding.

   Canonical names undo the two ways a path hides its target: dune's
   mangling ("Cddpd_obs__Counter" is unit Counter of library Cddpd_obs)
   and local module aliases ("module Obs = Cddpd_obs" makes
   "Obs.Counter.incr" mean "Cddpd_obs.Counter.incr").  Opens need no
   work: the typer already writes the opened module into the path. *)

module L = Lint_types
module SSet = Set.Make (String)

type uses = { values : SSet.t; modules : SSet.t }

let unit_path name =
  let n = String.length name in
  let rec split start i acc =
    if i >= n - 1 then List.rev (String.sub name start (n - start) :: acc)
    else if name.[i] = '_' && name.[i + 1] = '_' then
      split (i + 2) (i + 2) (String.sub name start (i - start) :: acc)
    else split start (i + 1) acc
  in
  List.filter (fun s -> s <> "") (split 0 0 [])

let rec peel_constraint (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_constraint (me, _, _, _) -> peel_constraint me
  | _ -> me

(* The values a functor parameter requires, when its module type expands
   against the stdlib alone: a [sig .. end], Set.OrderedType,
   Hashtbl.HashedType.  [None] leaves the argument used whole. *)
let stdlib_env = lazy (Compmisc.init_path (); Compmisc.initial_env ())

let required_values (functor_type : Types.module_type) =
  let env = Lazy.force stdlib_env in
  match Mtype.scrape env functor_type with
  | Mty_functor (Named (_, param), _) -> (
      match Mtype.scrape env param with
      | Mty_signature sg ->
          Some
            (List.filter_map
               (function Types.Sig_value (id, _, _) -> Some (Ident.name id) | _ -> None)
               sg)
      | _ | (exception _) -> None)
  | _ | (exception _) -> None

let uses (str : Typedtree.structure) =
  let aliases = Hashtbl.create 16 in
  let values = ref SSet.empty and modules = ref SSet.empty in
  let rec segments = function
    | Path.Pident id -> (
        match Hashtbl.find_opt aliases (Ident.unique_name id) with
        | Some segs -> segs
        | None -> unit_path (Ident.name id))
    | Path.Pdot (p, s) -> segments p @ [ s ]
    | _ -> []
  in
  (* [module X = Y] (or [let module X = Y in]) names Y; it uses nothing. *)
  let alias id (me : Typedtree.module_expr) =
    match (id, (peel_constraint me).mod_desc) with
    | Some id, Tmod_ident (p, _) ->
        Hashtbl.replace aliases (Ident.unique_name id) (segments p);
        true
    | _ -> false
  in
  let default = Tast_iterator.default_iterator in
  let iter =
    {
      default with
      structure_item =
        (fun self item ->
          match item.str_desc with
          | Tstr_module { mb_id; mb_expr; _ } when alias mb_id mb_expr -> ()
          | _ -> default.structure_item self item);
      expr =
        (fun self e ->
          match e.exp_desc with
          | Texp_ident ((Path.Pdot _ as p), _, _) ->
              values := SSet.add (String.concat "." (segments p)) !values
          | Texp_letmodule (id, _, _, me, body) when alias id me ->
              self.expr self body
          | _ -> default.expr self e);
      module_expr =
        (fun self me ->
          match me.mod_desc with
          | Tmod_ident (p, _) ->
              modules := SSet.add (String.concat "." (segments p)) !modules
          (* [Set.Make (M)] uses M's [compare], not all of M. *)
          | Tmod_apply (f, arg, _) -> (
              self.module_expr self f;
              match ((peel_constraint arg).mod_desc, required_values f.mod_type) with
              | Tmod_ident (p, _), Some names ->
                  let m = String.concat "." (segments p) in
                  List.iter (fun n -> values := SSet.add (m ^ "." ^ n) !values) names
              | _ -> self.module_expr self arg)
          | _ -> default.module_expr self me);
      (* [open M] makes M's names visible; it uses none of them. *)
      open_declaration =
        (fun self od ->
          match od.open_expr.mod_desc with
          | Tmod_ident _ -> ()
          | _ -> default.open_declaration self od);
    }
  in
  iter.structure iter str;
  { values = !values; modules = !modules }

type export = { file : string; name : string list; line : int; col : int }

let exports ~unit_path ~path source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf path;
  match Parse.interface lexbuf with
  | exception _ -> []
  | signature ->
      let acc = ref [] in
      let rec walk prefix (items : Parsetree.signature) =
        List.iter
          (fun (item : Parsetree.signature_item) ->
            match item.psig_desc with
            | Psig_value vd ->
                let pos = vd.pval_loc.loc_start in
                acc :=
                  {
                    file = path;
                    name = prefix @ [ vd.pval_name.txt ];
                    line = pos.pos_lnum;
                    col = pos.pos_cnum - pos.pos_bol;
                  }
                  :: !acc
            | Psig_module md -> sub prefix md
            | Psig_recmodule mds -> List.iter (sub prefix) mds
            | _ -> ())
          items
      and sub prefix (md : Parsetree.module_declaration) =
        match (md.pmd_name.txt, md.pmd_type.pmty_desc) with
        | Some name, Pmty_signature items -> walk (prefix @ [ name ]) items
        | _ -> ()
      in
      walk unit_path signature;
      List.rev !acc

let check all_uses =
  let values = List.fold_left (fun acc u -> SSet.union acc u.values) SSet.empty all_uses in
  let modules = List.fold_left (fun acc u -> SSet.union acc u.modules) SSet.empty all_uses in
  (* A module used whole covers every export below it. *)
  let rec used_whole prefix = function
    | [] | [ _ ] -> false
    | seg :: rest ->
        let prefix = prefix @ [ seg ] in
        SSet.mem (String.concat "." prefix) modules || used_whole prefix rest
  in
  List.filter_map (fun e ->
      let full = String.concat "." e.name in
      if SSet.mem full values || used_whole [] e.name then None
      else
        Some
          (L.finding ~col:e.col ~origin:L.Typed ~file:e.file ~line:e.line
             ~rule:L.Dead_export
             (Printf.sprintf
                "%s is exported but no other module references it; delete \
                 it, or drop it from the interface if only its own module \
                 uses it"
                full)))
