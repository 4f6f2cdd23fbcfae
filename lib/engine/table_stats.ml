module Ast = Cddpd_sql.Ast
module Tuple = Cddpd_storage.Tuple

type t = {
  row_count : int;
  page_count : int;
  histograms : (string * Histogram.t) list;
}

let make ~row_count ~page_count ~histograms = { row_count; page_count; histograms }

let fingerprint { row_count; page_count; histograms } =
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

let row_count t = t.row_count

let page_count t = t.page_count

let histogram t column =
  let rec find = function
    | [] -> None
    | (c, h) :: rest -> if String.equal c column then Some h else find rest
  in
  find t.histograms

let columns t = List.map fst t.histograms

let n_histograms t = List.length t.histograms

let default_selectivity = 0.1

(* Ranges go through the filter's inclusive interval, so a bound at the
   int edges is empty (selectivity 0) instead of wrapping round to the
   whole table.  An unbounded side is [min_int]/[max_int], which the
   histogram clamps to its buckets exactly as it would an absent bound. *)
let predicate_selectivity t pred =
  let column = match pred with Ast.Cmp { column; _ } | Ast.Between { column; _ } -> column in
  match (histogram t column, pred) with
  | Some h, Ast.Cmp { op = Ast.Eq; value = Tuple.Int v; _ } -> Histogram.selectivity_eq h v
  | Some h, (Ast.Cmp _ | Ast.Between _) -> (
      match Filter.predicate_interval pred with
      | Some (lo, hi) when lo > hi -> 0.0
      | Some (lo, hi) -> Histogram.selectivity_range h ~lo:(Some lo) ~hi:(Some hi)
      | None -> default_selectivity)
  | None, _ -> default_selectivity
