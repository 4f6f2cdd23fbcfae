module Text_table = Cddpd_util.Text_table

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

let json_escape s =
  let buffer = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buffer "\\\""
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | '\t' -> Buffer.add_string buffer "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.contents buffer

(* JSON has no NaN/Infinity literals; clamp to null. *)
let json_float x =
  if Float.is_finite x then Printf.sprintf "%.9g" x else "null"

let json_lines_string snapshot =
  let buffer = Buffer.create 1024 in
  List.iter
    (fun (name, value) ->
      (match value with
      | Snapshot.Count n ->
          Buffer.add_string buffer
            (Printf.sprintf "{\"metric\":\"%s\",\"type\":\"counter\",\"value\":%d}"
               (json_escape name) n)
      | Snapshot.Dist d ->
          Buffer.add_string buffer
            (Printf.sprintf
               "{\"metric\":\"%s\",\"type\":\"histogram\",\"count\":%d,\"sum\":%s,\"mean\":%s,\"p50\":%s,\"p95\":%s,\"max\":%s}"
               (json_escape name) d.Snapshot.count (json_float d.Snapshot.sum)
               (json_float d.Snapshot.mean) (json_float d.Snapshot.p50)
               (json_float d.Snapshot.p95) (json_float d.Snapshot.max_value)));
      Buffer.add_char buffer '\n')
    (Snapshot.entries snapshot);
  Buffer.contents buffer

(* The span tree as JSON lines, one per node, the root-to-node path in
   "span". *)
let span_json_lines () =
  let buffer = Buffer.create 1024 in
  let rec walk path node =
    let path = path ^ Span.name node in
    Buffer.add_string buffer
      (Printf.sprintf
         "{\"span\":\"%s\",\"calls\":%d,\"total_s\":%s}\n"
         (json_escape path) (Span.calls node) (json_float (Span.total_s node)));
    List.iter (walk (path ^ "/")) (Span.children node)
  in
  List.iter (walk "") (Span.roots ());
  Buffer.contents buffer

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
