module Text_table = Cddpd_util.Text_table
module Json = Cddpd_util.Json

type format = Table | Json_lines

(* -- text table -------------------------------------------------------------- *)

let table_string snapshot =
  let table =
    Text_table.create
      [
        ("metric", Text_table.Left);
        ("value", Text_table.Right);
        ("count", Text_table.Right);
        ("mean", Text_table.Right);
        ("p50", Text_table.Right);
        ("p95", Text_table.Right);
        ("max", Text_table.Right);
      ]
  in
  List.iter
    (fun (name, value) ->
      match value with
      | Snapshot.Count n ->
          Text_table.add_row table
            [ name; string_of_int n; ""; ""; ""; ""; "" ]
      | Snapshot.Dist d ->
          Text_table.add_row table
            [
              name;
              "";
              string_of_int d.Snapshot.count;
              Printf.sprintf "%.6g" d.Snapshot.mean;
              Printf.sprintf "%.6g" d.Snapshot.p50;
              Printf.sprintf "%.6g" d.Snapshot.p95;
              Printf.sprintf "%.6g" d.Snapshot.max_value;
            ])
    (Snapshot.entries snapshot);
  Text_table.render table ^ "\n"

(* -- JSON lines -------------------------------------------------------------- *)

(* JSON has no NaN/Infinity literals; clamp to null. *)
let json_float x = if Float.is_finite x then Json.Number (Printf.sprintf "%.9g" x) else Json.Null

let json_lines lines =
  String.concat "" (List.map (fun line -> Json.to_string (Json.Object line) ^ "\n") lines)

let json_lines_string snapshot =
  json_lines
    (List.map
       (fun (name, value) ->
         ("metric", Json.String name)
         ::
         (match value with
         | Snapshot.Count n -> [ ("type", Json.String "counter"); ("value", Json.int n) ]
         | Snapshot.Dist d ->
             [
               ("type", Json.String "histogram");
               ("count", Json.int d.Snapshot.count);
               ("sum", json_float d.Snapshot.sum);
               ("mean", json_float d.Snapshot.mean);
               ("p50", json_float d.Snapshot.p50);
               ("p95", json_float d.Snapshot.p95);
               ("max", json_float d.Snapshot.max_value);
             ]))
       (Snapshot.entries snapshot))

(* The span tree as JSON lines, one per node, the root-to-node path in
   "span". *)
let span_json_lines () =
  let rec walk path node =
    let path = path ^ Span.name node in
    [ ("span", Json.String path); ("calls", Json.int (Span.calls node));
      ("total_s", json_float (Span.total_s node)) ]
    :: List.concat_map (walk (path ^ "/")) (Span.children node)
  in
  json_lines (List.concat_map (walk "") (Span.roots ()))

(* -- dispatch ---------------------------------------------------------------- *)

let render format snapshot =
  match format with
  | Table -> table_string snapshot
  | Json_lines -> json_lines_string snapshot

let write_file path format snapshot =
  let out = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out out)
    (fun () ->
      output_string out (render format snapshot);
      if format = Json_lines then output_string out (span_json_lines ()))
