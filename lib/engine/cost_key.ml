module Ast = Cddpd_sql.Ast
module Tuple = Cddpd_storage.Tuple
module Structure = Cddpd_catalog.Structure
module Index_def = Cddpd_catalog.Index_def
module View_def = Cddpd_catalog.View_def

(* Int vs Text decides whether a value participates in index-prefix and
   range matching (int_value in Cost_model), independently of selectivity. *)
let add_value_kind buf v =
  Buffer.add_char buf (match v with Tuple.Int _ -> 'i' | Tuple.Text _ -> 't')

let op_char op =
  match op with
  | Ast.Eq -> '='
  | Ast.Lt -> '<'
  | Ast.Le -> 'l'
  | Ast.Gt -> '>'
  | Ast.Ge -> 'g'

(* One predicate: shape plus its selectivity under [stats], as exact float
   bits.  The cost formulas read a predicate only through these. *)
let add_pred stats buf pred =
  (match pred with
  | Ast.Cmp { column; op; value } ->
      Buffer.add_char buf (op_char op);
      Buffer.add_string buf column;
      Buffer.add_char buf ':';
      add_value_kind buf value
  | Ast.Between { column; low; high } ->
      Buffer.add_char buf 'b';
      Buffer.add_string buf column;
      Buffer.add_char buf ':';
      add_value_kind buf low;
      add_value_kind buf high);
  Buffer.add_char buf '#';
  Buffer.add_string buf
    (Printf.sprintf "%Lx" (Int64.bits_of_float (Table_stats.predicate_selectivity stats pred)));
  Buffer.add_char buf ';'

let statement stats stmt =
  let buf = Buffer.create 96 in
  (* Table shape: every cost formula scales with these, and a key must
     stay an identity across statistics snapshots. *)
  Buffer.add_string buf
    (Printf.sprintf "%d.%d.%d@" (Table_stats.row_count stats)
       (Table_stats.page_count stats) (Table_stats.n_histograms stats));
  let add_preds where = List.iter (add_pred stats buf) where in
  (match stmt with
  | Ast.Select { projection; table; where } ->
      Buffer.add_string buf "S:";
      Buffer.add_string buf table;
      Buffer.add_char buf ':';
      (match projection with
      | Ast.Star -> Buffer.add_char buf '*'
      | Ast.Columns cs -> Buffer.add_string buf (String.concat "," cs));
      Buffer.add_char buf ':';
      add_preds where
  | Ast.Select_agg { table; group_by; where; _ } ->
      (* The aggregate function is not part of the key: view probe and scan
         costs depend only on the group column's shape. *)
      let groups =
        match Table_stats.histogram stats group_by with
        | Some h -> Histogram.n_distinct h
        | None -> -1
      in
      Buffer.add_string buf "A:";
      Buffer.add_string buf table;
      Buffer.add_char buf ':';
      Buffer.add_string buf group_by;
      Buffer.add_char buf ':';
      Buffer.add_string buf (string_of_int groups);
      Buffer.add_char buf ':';
      add_preds where
  | Ast.Insert { table; _ } ->
      (* Heap append + index maintenance: the values never enter the cost. *)
      Buffer.add_string buf "N:";
      Buffer.add_string buf table
  | Ast.Delete { table; where } ->
      Buffer.add_string buf "D:";
      Buffer.add_string buf table;
      Buffer.add_char buf ':';
      add_preds where
  | Ast.Update { table; where; _ } ->
      (* Assignments are rewrites of found rows; only the WHERE costs. *)
      Buffer.add_string buf "U:";
      Buffer.add_string buf table;
      Buffer.add_char buf ':';
      add_preds where);
  Buffer.contents buf

(* Physically the same histogram in both snapshots, or none in either:
   [Value_counts] hands out the same object while the column is
   untouched, and histograms are immutable. *)
let same_histogram ~was ~now column =
  match (Table_stats.histogram was column, Table_stats.histogram now column) with
  | Some a, Some b -> a == b
  | None, None -> true
  | Some _, None | None, Some _ -> false

let same_pred_inputs ~was ~now pred =
  match pred with
  | Ast.Cmp { column; _ } | Ast.Between { column; _ } -> same_histogram ~was ~now column

let same_inputs ~was ~now stmt =
  was == now
  || Table_stats.row_count was = Table_stats.row_count now
     && Table_stats.page_count was = Table_stats.page_count now
     && Table_stats.n_histograms was = Table_stats.n_histograms now
     &&
     match stmt with
     | Ast.Select { where; _ } | Ast.Delete { where; _ } | Ast.Update { where; _ } ->
         List.for_all (same_pred_inputs ~was ~now) where
     | Ast.Select_agg { group_by; where; _ } ->
         same_histogram ~was ~now group_by && List.for_all (same_pred_inputs ~was ~now) where
     | Ast.Insert _ -> true

let structure s =
  match s with
  | Structure.Index i ->
      Printf.sprintf "I:%s:%s" (Index_def.table i)
        (String.concat "," (Index_def.columns i))
  | Structure.View v ->
      Printf.sprintf "V:%s:%s" (View_def.table v) (View_def.group_by v)

let structure_stats stats s =
  match s with
  | Structure.Index _ -> 0
  | Structure.View v -> Cost_model.view_rows stats v
