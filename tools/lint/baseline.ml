(* The finding-count ratchet.  [lint-baseline.json] records every waived
   finding as a (file, rule, message) key with an occurrence count; CI
   compares the current run against the committed baseline:

   - a key that appears with a higher count than the baseline (or is
     absent from it) is *growth* — the run fails;
   - a key whose count dropped (or vanished) is *burn-down* — reported
     as a reminder to regenerate the baseline, never an error.

   Unwaived blocking findings never reach the baseline: they fail the
   run directly.  The file is read with the repository's JSON parser. *)

module L = Lint_types
module Json = Cddpd_util.Json

type entry = { file : string; rule : string; message : string; count : int }

let key e = (e.file, e.rule, e.message)

let compare_entries a b = compare (key a) (key b)

(* -- building from a report's waived findings -------------------------------- *)

let of_findings findings =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (f : L.finding) ->
      if f.waived then begin
        let k = (f.file, L.rule_id f.rule, f.message) in
        let n = Option.value (Hashtbl.find_opt tbl k) ~default:0 in
        Hashtbl.replace tbl k (n + 1)
      end)
    findings;
  Hashtbl.fold
    (fun (file, rule, message) count acc ->
      { file; rule; message; count } :: acc)
    tbl []
  |> List.sort compare_entries

(* -- rendering --------------------------------------------------------------- *)

let schema = "cddpd-lint-baseline/1"

let render entries =
  let str s = Json.to_string (Json.String s) in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "{\n  \"schema\": %s,\n  \"waived\": [" (str schema));
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\n    {\"file\": %s, \"rule\": %s, \"count\": %d, \"message\": %s}"
           (str e.file) (str e.rule) e.count (str e.message)))
    (List.sort compare_entries entries);
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

(* -- parsing ----------------------------------------------------------------- *)

let parse text =
  let field name members =
    List.find_map (fun (k, v) -> if String.equal k name then Some v else None) members
  in
  let entry = function
    | Json.Object m -> (
        match (field "file" m, field "rule" m, field "message" m, field "count" m) with
        | ( Some (Json.String file),
            Some (Json.String rule),
            Some (Json.String message),
            Some (Json.Number n) ) ->
            Option.to_result ~none:("bad count " ^ n)
              (Option.map (fun count -> { file; rule; message; count }) (int_of_string_opt n))
        | _ -> Error "a waived entry needs file, rule, message and count")
    | _ -> Error "a waived entry is not an object"
  in
  match Json.parse text with
  | Error _ as e -> e
  | Ok (Json.Object top) -> (
      match (field "schema" top, field "waived" top) with
      | Some (Json.String s), Some (Json.Array items) when String.equal s schema ->
          List.fold_right
            (fun item acc ->
              match (entry item, acc) with
              | Ok e, Ok entries -> Ok (e :: entries)
              | (Error _ as e), _ | _, (Error _ as e) -> e)
            items (Ok [])
          |> Result.map (List.sort compare_entries)
      | Some (Json.String s), _ when not (String.equal s schema) ->
          Error ("unsupported baseline schema " ^ s)
      | _ -> Error "expected schema and waived fields")
  | Ok _ -> Error "expected an object"

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> parse text

(* -- diff --------------------------------------------------------------------- *)

type diff = {
  grown : entry list;  (** present now, absent or smaller in the baseline *)
  shrunk : entry list;  (** present in the baseline, absent or smaller now *)
}

let clean d = d.grown = [] && d.shrunk = []

let diff ~baseline ~current =
  let index entries =
    let tbl = Hashtbl.create 64 in
    List.iter (fun e -> Hashtbl.replace tbl (key e) e.count) entries;
    tbl
  in
  let base = index baseline and cur = index current in
  let grown =
    List.filter_map
      (fun e ->
        let had = Option.value (Hashtbl.find_opt base (key e)) ~default:0 in
        if e.count > had then Some { e with count = e.count - had } else None)
      current
  in
  let shrunk =
    List.filter_map
      (fun e ->
        let have = Option.value (Hashtbl.find_opt cur (key e)) ~default:0 in
        if e.count > have then Some { e with count = e.count - have } else None)
      baseline
  in
  { grown = List.sort compare_entries grown;
    shrunk = List.sort compare_entries shrunk }

let render_diff d =
  let buf = Buffer.create 256 in
  let line e =
    Printf.sprintf "  %s [%s] x%d: %s\n" e.file e.rule e.count e.message
  in
  if d.grown <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "ratchet: %d new waived finding(s) not in the baseline:\n"
         (List.fold_left (fun n e -> n + e.count) 0 d.grown));
    List.iter (fun e -> Buffer.add_string buf (line e)) d.grown
  end;
  if d.shrunk <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf
         "ratchet: %d waived finding(s) burned down since the baseline \
          (regenerate with make lint-update-baseline):\n"
         (List.fold_left (fun n e -> n + e.count) 0 d.shrunk));
    List.iter (fun e -> Buffer.add_string buf (line e)) d.shrunk
  end;
  Buffer.contents buf
