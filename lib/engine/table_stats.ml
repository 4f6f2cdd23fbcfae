module Ast = Cddpd_sql.Ast
module Tuple = Cddpd_storage.Tuple

type t = {
  row_count : int;
  page_count : int;
  histograms : (string * Histogram.t) list;
  fingerprint : string;
}

let compute_fingerprint ~row_count ~page_count ~histograms =
  let buf = Buffer.create 4096 in
  let add i = Buffer.add_int64_le buf (Int64.of_int i) in
  add row_count;
  add page_count;
  List.iter
    (fun (column, h) ->
      add (String.length column);
      Buffer.add_string buf column;
      Histogram.add_fingerprint_bytes buf h)
    histograms;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* The fingerprint is computed here, once, rather than on demand: snapshots
   are read from several domains during a parallel build, and a plain
   field needs no synchronisation. *)
let make ~row_count ~page_count ~histograms =
  {
    row_count;
    page_count;
    histograms;
    fingerprint = compute_fingerprint ~row_count ~page_count ~histograms;
  }

let row_count t = t.row_count

let page_count t = t.page_count

let histogram t column = List.assoc_opt column t.histograms

let n_histograms t = List.length t.histograms

let fingerprint t = t.fingerprint

let default_selectivity = 0.1

let int_value v = match v with Tuple.Int i -> Some i | Tuple.Text _ -> None

let predicate_selectivity t pred =
  match pred with
  | Ast.Cmp { column; op; value } -> (
      match (histogram t column, int_value value) with
      | Some h, Some v -> (
          match op with
          | Ast.Eq -> Histogram.selectivity_eq h v
          | Ast.Lt -> Histogram.selectivity_range h ~lo:None ~hi:(Some (v - 1))
          | Ast.Le -> Histogram.selectivity_range h ~lo:None ~hi:(Some v)
          | Ast.Gt -> Histogram.selectivity_range h ~lo:(Some (v + 1)) ~hi:None
          | Ast.Ge -> Histogram.selectivity_range h ~lo:(Some v) ~hi:None)
      | None, _ | _, None -> default_selectivity)
  | Ast.Between { column; low; high } -> (
      match (histogram t column, int_value low, int_value high) with
      | Some h, Some lo, Some hi when lo <= hi ->
          Histogram.selectivity_range h ~lo:(Some lo) ~hi:(Some hi)
      | Some _, Some _, Some _ -> 0.0
      | _ -> default_selectivity)

let conjunction_selectivity t preds =
  List.fold_left (fun acc pred -> acc *. predicate_selectivity t pred) 1.0 preds

let estimate_rows t preds =
  conjunction_selectivity t preds *. float_of_int t.row_count
