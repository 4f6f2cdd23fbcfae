module Ast = Cddpd_sql.Ast
module Schema = Cddpd_catalog.Schema
module Index_def = Cddpd_catalog.Index_def
module View_def = Cddpd_catalog.View_def
module Structure = Cddpd_catalog.Structure
module Obs = Cddpd_obs

let m_generated = Obs.Registry.counter "candidates.generated"

let is_indexable table column =
  match Schema.column_type table column with
  | Some Schema.Int_type -> true
  | Some Schema.Text_type | None -> false

let predicate_column pred =
  match pred with
  | Ast.Cmp { column; _ } | Ast.Between { column; _ } -> column

(* -- the workload tally ---------------------------------------------------------

   Everything the frequency-based candidates read from a workload: how
   often each indexable column appears in a predicate on the table, and
   which indexable columns its aggregates group by.  Both are kept sorted
   by column name, so tallies of separate statement batches merge into
   exactly the tally of their concatenation. *)

type tally = {
  columns : (string * int) list;  (** predicate-column occurrences, by name *)
  group_bys : string list;  (** distinct grouping columns, by name *)
}

let empty_tally = { columns = []; group_bys = [] }

let tally_weighted table statements ~weights =
  if Array.length weights <> Array.length statements then
    invalid_arg "Candidates.tally_weighted: one weight per statement";
  let counts = Hashtbl.create 8 in
  let groups = Hashtbl.create 4 in
  let consider weight statement_table where =
    if String.equal statement_table table.Schema.name then
      List.iter
        (fun pred ->
          let column = predicate_column pred in
          if is_indexable table column then
            Hashtbl.replace counts column
              (weight + Option.value ~default:0 (Hashtbl.find_opt counts column)))
        where
  in
  Array.iteri
    (fun i statement ->
      let weight = weights.(i) in
      if weight <= 0 then invalid_arg "Candidates.tally_weighted: weights must be positive";
      match statement with
      | Ast.Insert _ -> ()
      | Ast.Select select -> consider weight select.Ast.table select.Ast.where
      | Ast.Select_agg { table = statement_table; group_by; where; _ } ->
          if String.equal statement_table table.Schema.name && is_indexable table group_by then
            Hashtbl.replace groups group_by ();
          consider weight statement_table where
      | Ast.Delete { table = statement_table; where } -> consider weight statement_table where
      | Ast.Update { table = statement_table; where; _ } -> consider weight statement_table where)
    statements;
  (* cddpd-lint: allow determinism — fold builds an unordered tally; the result is sorted by name *)
  let columns = Hashtbl.fold (fun column count acc -> (column, count) :: acc) counts [] in
  (* cddpd-lint: allow determinism — fold collects keys that are sorted by String.compare *)
  let group_bys = Hashtbl.fold (fun group_by () acc -> group_by :: acc) groups [] in
  {
    columns = List.sort (fun (c1, _) (c2, _) -> String.compare c1 c2) columns;
    group_bys = List.sort String.compare group_bys;
  }

let tally table statements =
  tally_weighted table statements ~weights:(Array.make (Array.length statements) 1)

let merge a b =
  let rec columns xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> rest
    | (c1, n1) :: r1, (c2, n2) :: r2 ->
        let c = String.compare c1 c2 in
        if c = 0 then (c1, n1 + n2) :: columns r1 r2
        else if c < 0 then (c1, n1) :: columns r1 ys
        else (c2, n2) :: columns xs r2
  in
  {
    columns = columns a.columns b.columns;
    group_bys = List.sort_uniq String.compare (a.group_bys @ b.group_bys);
  }

(* Most frequent first, ties broken by name. *)
let frequencies t =
  List.sort
    (fun (c1, n1) (c2, n2) ->
      let c = Int.compare n2 n1 in
      if c <> 0 then c else String.compare c1 c2)
    t.columns

let column_frequencies table statements = frequencies (tally table statements)

let indexes_of_tally table ~composite_pairs t =
  let frequencies = frequencies t in
  let singles =
    List.map
      (fun (column, _) -> Index_def.make ~table:table.Schema.name ~columns:[ column ])
      frequencies
  in
  (* Composite candidates: pair the predicate columns two by two in
     frequency order.  A composite I(x,y) serves x-queries by covering
     seek and y-queries by covering leaf scan, which is exactly why the
     paper's space includes I(a,b) and I(c,d); pairing by frequency
     recovers those on mix-style workloads. *)
  let rec pair_up remaining taken =
    if taken >= composite_pairs then []
    else
      match remaining with
      | (x, _) :: (y, _) :: rest ->
          Index_def.make ~table:table.Schema.name ~columns:[ x; y ]
          :: pair_up rest (taken + 1)
      | [ _ ] | [] -> []
  in
  let composites = pair_up frequencies 0 in
  let all = singles @ composites in
  (* Deduplicate while keeping order. *)
  let rec dedup seen acc items =
    match items with
    | [] -> List.rev acc
    | i :: rest ->
        if List.exists (Index_def.equal i) seen then dedup seen acc rest
        else dedup (i :: seen) (i :: acc) rest
  in
  dedup [] [] all

let views_of_tally table t =
  List.map (fun group_by -> View_def.make ~table:table.Schema.name ~group_by) t.group_bys

let from_statements table ?(composite_pairs = 0) statements =
  indexes_of_tally table ~composite_pairs (tally table statements)

let view_candidates table statements = views_of_tally table (tally table statements)

let structures_of_tally table ?(composite_pairs = 0) t =
  List.map Structure.index (indexes_of_tally table ~composite_pairs t)
  @ List.map Structure.view (views_of_tally table t)

let structures_from_statements table ?composite_pairs statements =
  structures_of_tally table ?composite_pairs (tally table statements)

(* -- multi-column syntactic generation -------------------------------------- *)

(* The scaled pipeline's generator: instead of frequency-paired composites
   it derives, per statement, the column lists an access-path planner can
   actually exploit — the equality prefix, the prefix extended by the
   range column, and the covering extension — then closes the set under
   prefixes and merges high-frequency candidates pairwise (index merging).
   The result is ordered best-first by how many statements produced each
   column list. *)

let rec take n xs =
  if n <= 0 then [] else match xs with [] -> [] | x :: rest -> x :: take (n - 1) rest

let dedup_columns columns =
  let rec go seen acc columns =
    match columns with
    | [] -> List.rev acc
    | c :: rest ->
        if List.mem c seen then go seen acc rest else go (c :: seen) (c :: acc) rest
  in
  go [] [] columns

(* The column lists statement [s] makes useful as index keys, widest first.
   Only SELECTs generate composites: aggregates are answered by views and
   DML only seeks on its predicate columns (wide indexes are pure
   maintenance weight there). *)
let statement_column_lists table ~max_width statement =
  let indexable = is_indexable table in
  let split_where where =
    let eq, range =
      List.partition
        (fun pred -> match pred with Ast.Cmp { op = Ast.Eq; _ } -> true | _ -> false)
        where
    in
    ( dedup_columns (List.filter indexable (List.map predicate_column eq)),
      dedup_columns (List.filter indexable (List.map predicate_column range)) )
  in
  let singles columns = List.map (fun c -> [ c ]) columns in
  match statement with
  | Ast.Insert _ -> []
  | Ast.Select_agg _ -> []
  | Ast.Delete { table = t; where } | Ast.Update { table = t; where; _ } ->
      if not (String.equal t table.Schema.name) then []
      else
        let eq, range = split_where where in
        singles (eq @ range)
  | Ast.Select select ->
      if not (String.equal select.Ast.table table.Schema.name) then []
      else
        let eq, range = split_where select.Ast.where in
        let range_head = match range with [] -> [] | r :: _ -> [ r ] in
        let sargable = take max_width (eq @ range_head) in
        let covering =
          match select.Ast.projection with
          | Ast.Star -> []
          | Ast.Columns _ ->
              let referenced =
                dedup_columns
                  (List.filter indexable (Ast.referenced_columns statement))
              in
              let rest = List.filter (fun c -> not (List.mem c sargable)) referenced in
              let extended = take max_width (sargable @ rest) in
              if List.length extended > List.length sargable then [ extended ] else []
        in
        let composites =
          (if List.length sargable >= 2 then [ sargable ] else []) @ covering
        in
        composites @ singles (eq @ range)

let column_list_key columns = String.concat "," columns

(* Merge two column lists, first one's order winning (index merging). *)
let merge_columns ~max_width a b =
  take max_width (dedup_columns (a @ b))

let generate table ?(max_width = 3) ?max_candidates statements =
  if max_width < 1 then invalid_arg "Candidates.generate: max_width < 1";
  Obs.Span.with_span "candidates.generate" @@ fun () ->
  (* Tally every per-statement column list; [order] keeps first-occurrence
     order so the result never depends on hash-table iteration. *)
  let freq = Hashtbl.create 64 in
  let order = ref [] in
  let add_list weight columns =
    match columns with
    | [] -> ()
    | _ -> (
        let key = column_list_key columns in
        match Hashtbl.find_opt freq key with
        | Some (count, _) -> Hashtbl.replace freq key (count + weight, columns)
        | None ->
            Hashtbl.replace freq key (weight, columns);
            order := key :: !order)
  in
  Array.iter
    (fun statement ->
      List.iter (add_list 1) (statement_column_lists table ~max_width statement))
    statements;
  let keys_in_order () = List.rev !order in
  (* Index merging: walk candidates best-first and merge rank-adjacent
     pairs, the classic way one wider index replaces two narrower ones. *)
  let ranked () =
    List.map (fun key -> Hashtbl.find freq key) (keys_in_order ())
    |> List.sort (fun (n1, c1) (n2, c2) ->
           let c = Int.compare n2 n1 in
           if c <> 0 then c
           else
             let c = Int.compare (List.length c1) (List.length c2) in
             if c <> 0 then c
             else String.compare (column_list_key c1) (column_list_key c2))
  in
  let rec merge_adjacent pairs =
    match pairs with
    | (_, a) :: ((_, b) :: _ as rest) ->
        let merged = merge_columns ~max_width a b in
        if not (List.equal String.equal merged a) then add_list 0 merged;
        merge_adjacent rest
    | [ _ ] | [] -> ()
  in
  merge_adjacent (ranked ());
  (* Prefix closure: every proper prefix of a candidate (merged ones
     included) is itself a candidate, with zero own frequency unless some
     statement generated it. *)
  List.iter
    (fun key ->
      let _, columns = Hashtbl.find freq key in
      let rec close_prefixes prefix_rev remaining =
        match remaining with
        | [] | [ _ ] -> () (* the full list is already a candidate *)
        | c :: rest ->
            add_list 0 (List.rev (c :: prefix_rev));
            close_prefixes (c :: prefix_rev) rest
      in
      close_prefixes [] columns)
    (keys_in_order ());
  let indexes =
    List.map
      (fun (_, columns) -> Index_def.make ~table:table.Schema.name ~columns)
      (ranked ())
  in
  let all =
    List.map Structure.index indexes
    @ List.map Structure.view (view_candidates table statements)
  in
  let all = match max_candidates with None -> all | Some cap -> take cap all in
  Obs.Counter.add m_generated (List.length all);
  all
