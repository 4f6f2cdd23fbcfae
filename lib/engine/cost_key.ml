module Ast = Cddpd_sql.Ast
module Tuple = Cddpd_storage.Tuple
module Structure = Cddpd_catalog.Structure
module Index_def = Cddpd_catalog.Index_def
module View_def = Cddpd_catalog.View_def

(* The key is packed bytes, never formatted text: counts and selectivity
   bits are fixed-width little-endian int64s, tags are single bytes, and
   names end at a ':' (identifiers cannot hold one) or, in a column list,
   a ','.  Every field sits where the ones before it say, so equal keys
   mean equal fields. *)
let add_int buf i = Buffer.add_int64_le buf (Int64.of_int i)

let add_name buf name =
  Buffer.add_string buf name;
  Buffer.add_char buf ':'

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
   bits.  The cost formulas read a predicate only through these.  The
   operator tag says how many value kinds follow, so the selectivity
   needs no delimiter. *)
let add_pred stats buf pred =
  (match pred with
  | Ast.Cmp { column; op; value } ->
      Buffer.add_char buf (op_char op);
      add_name buf column;
      add_value_kind buf value
  | Ast.Between { column; low; high } ->
      Buffer.add_char buf 'b';
      add_name buf column;
      add_value_kind buf low;
      add_value_kind buf high);
  Buffer.add_int64_le buf (Int64.bits_of_float (Table_stats.predicate_selectivity stats pred))

let statement stats stmt =
  let buf = Buffer.create 128 in
  (* Table shape: every cost formula scales with these, and a key must
     stay an identity across statistics snapshots. *)
  add_int buf (Table_stats.row_count stats);
  add_int buf (Table_stats.page_count stats);
  add_int buf (Table_stats.n_histograms stats);
  let add_preds where = List.iter (add_pred stats buf) where in
  (match stmt with
  | Ast.Select { projection; table; where } ->
      Buffer.add_char buf 'S';
      add_name buf table;
      (match projection with
      | Ast.Star -> Buffer.add_char buf '*'
      | Ast.Columns cs ->
          List.iter
            (fun c ->
              Buffer.add_string buf c;
              Buffer.add_char buf ',')
            cs);
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
      Buffer.add_char buf 'A';
      add_name buf table;
      add_name buf group_by;
      add_int buf groups;
      add_preds where
  | Ast.Insert { table; _ } ->
      (* Heap append + index maintenance: the values never enter the cost. *)
      Buffer.add_char buf 'N';
      add_name buf table
  | Ast.Delete { table; where } ->
      Buffer.add_char buf 'D';
      add_name buf table;
      add_preds where
  | Ast.Update { table; where; _ } ->
      (* Assignments are rewrites of found rows; only the WHERE costs. *)
      Buffer.add_char buf 'U';
      add_name buf table;
      add_preds where);
  Buffer.contents buf

(* A mutable cell, so every stamp is a distinct block. *)
type stamp = unit ref

let stamp () = ref ()

type memo = No_plan | Plan of { stamp : stamp; plan : Plan.t }

type id = { key : string; hash : int; mutable memo : memo }

let id key = { key; hash = Hashtbl.hash key; memo = No_plan }

let remember id stamp plan = id.memo <- Plan { stamp; plan }

let forget id stamp =
  match id.memo with
  | Plan { stamp = held; _ } when held == stamp -> id.memo <- No_plan
  | Plan _ | No_plan -> ()

(* Equality is the full key: the stored hash only rejects unequal keys
   early, and an interned id meets itself physically. *)
let id_equal a b = a == b || (a.hash = b.hash && String.equal a.key b.key)

let id_hash i = i.hash

module Id_tbl = Hashtbl.Make (struct
  type t = id

  let equal = id_equal
  let hash = id_hash
end)

(* Proven once per snapshot pair: the table shape is compared, and the
   columns whose histogram is not physically the same object in both
   snapshots (or is missing from one) are listed.  [Value_counts] hands
   out the same object while a column is untouched, and histograms are
   immutable, so a statement that reads none of the listed columns keeps
   its key. *)
let same_inputs ~was ~now =
  if was == now then fun _ -> true
  else if
    Table_stats.row_count was <> Table_stats.row_count now
    || Table_stats.page_count was <> Table_stats.page_count now
    || Table_stats.n_histograms was <> Table_stats.n_histograms now
  then fun _ -> false
  else
    let moved column =
      match (Table_stats.histogram was column, Table_stats.histogram now column) with
      | Some a, Some b -> a != b
      | None, None -> false
      | Some _, None | None, Some _ -> true
    in
    match List.filter moved (Table_stats.columns was @ Table_stats.columns now) with
    | [] -> fun _ -> true
    | moved ->
        let kept column = not (List.exists (String.equal column) moved) in
        let kept_pred = function
          | Ast.Cmp { column; _ } | Ast.Between { column; _ } -> kept column
        in
        fun stmt ->
          match stmt with
          | Ast.Select { where; _ } | Ast.Delete { where; _ } | Ast.Update { where; _ } ->
              List.for_all kept_pred where
          | Ast.Select_agg { group_by; where; _ } -> kept group_by && List.for_all kept_pred where
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
