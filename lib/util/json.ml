type t =
  | Null
  | Bool of bool
  | Number of string
  | String of string
  | Array of t list
  | Object of (string * t) list

let int n = Number (string_of_int n)

let fixed digits x = if Float.is_finite x then Number (Printf.sprintf "%.*f" digits x) else Null

(* -- printing ---------------------------------------------------------------- *)

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Number n -> Buffer.add_string buf n
  | String s -> add_escaped buf s
  | Array items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          add buf v)
        items;
      Buffer.add_char buf ']'
  | Object members ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_escaped buf k;
          Buffer.add_char buf ':';
          add buf v)
        members;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf

(* -- parsing ----------------------------------------------------------------- *)

exception Bad of int * string

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then text.[!pos] else fail "unexpected end of input" in
  let skip_ws () =
    while !pos < n && (match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    if Char.equal (peek ()) c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let word w v =
    if !pos + String.length w <= n && String.equal (String.sub text !pos (String.length w)) w
    then begin
      pos := !pos + String.length w;
      v
    end
    else fail "expected a value"
  in
  let digits () =
    let start = !pos in
    while !pos < n && match text.[!pos] with '0' .. '9' -> true | _ -> false do
      incr pos
    done;
    if !pos = start then fail "expected a digit"
  in
  let number () =
    let start = !pos in
    if Char.equal (peek ()) '-' then incr pos;
    if Char.equal (peek ()) '0' then incr pos else digits ();
    if !pos < n && Char.equal text.[!pos] '.' then begin
      incr pos;
      digits ()
    end;
    if !pos < n && (Char.equal text.[!pos] 'e' || Char.equal text.[!pos] 'E') then begin
      incr pos;
      if !pos < n && (Char.equal text.[!pos] '+' || Char.equal text.[!pos] '-') then incr pos;
      digits ()
    end;
    Number (String.sub text start (!pos - start))
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let digit c =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail "bad \\u escape"
    in
    let code = String.fold_left (fun acc c -> (acc lsl 4) lor digit c) 0 (String.sub text !pos 4) in
    pos := !pos + 4;
    code
  in
  let string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      let c = peek () in
      incr pos;
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
          let e = peek () in
          incr pos;
          (match e with
          | '"' | '\\' | '/' -> Buffer.add_char buf e
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
              let code = hex4 () in
              let code =
                if code >= 0xD800 && code < 0xDC00 && !pos + 6 <= n
                   && String.equal (String.sub text !pos 2) "\\u"
                then begin
                  pos := !pos + 2;
                  let low = hex4 () in
                  if low < 0xDC00 || low > 0xDFFF then fail "bad surrogate pair";
                  0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
                end
                else code
              in
              if not (Uchar.is_valid code) then fail "bad \\u escape";
              Buffer.add_utf_8_uchar buf (Uchar.of_int code)
          | _ -> fail "bad escape");
          go ()
      | c when Char.code c < 0x20 -> fail "control character in string"
      | c ->
          Buffer.add_char buf c;
          go ()
    in
    go ()
  in
  (* [items close item] reads [item]s separated by commas up to [close]. *)
  let items close item =
    incr pos;
    skip_ws ();
    if Char.equal (peek ()) close then begin
      incr pos;
      []
    end
    else
      let rec go acc =
        let acc = item () :: acc in
        skip_ws ();
        if Char.equal (peek ()) ',' then begin
          incr pos;
          skip_ws ();
          go acc
        end
        else begin
          expect close;
          List.rev acc
        end
      in
      go []
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
        Object
          (items '}' (fun () ->
               let k = string () in
               skip_ws ();
               expect ':';
               (k, value ())))
    | '[' -> Array (items ']' value)
    | '"' -> String (string ())
    | 't' -> word "true" (Bool true)
    | 'f' -> word "false" (Bool false)
    | 'n' -> word "null" Null
    | '-' | '0' .. '9' -> number ()
    | _ -> fail "expected a value"
  in
  match
    let v = value () in
    skip_ws ();
    if !pos < n then fail "trailing bytes after the value";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) -> Error (Printf.sprintf "offset %d: %s" at msg)

(* -- leaf-by-leaf comparison ------------------------------------------------- *)

let diff ~skip ~recorded fresh =
  let key path k = if String.equal path "" then k else path ^ "." ^ k in
  let find k members = List.find_opt (fun (k', _) -> String.equal k k') members in
  let rec first f = function
    | [] -> Ok ()
    | x :: rest -> ( match f x with Ok () -> first f rest | Error _ as e -> e)
  in
  let absent path members others what =
    first
      (fun (k, _) ->
        if Option.is_none (find k others) then Error (key path k ^ what) else Ok ())
      members
  in
  let rec go path was now =
    match (was, now) with
    | Object was_members, Object now_members ->
        Result.bind (absent path was_members now_members " is missing, recorded present")
        @@ fun () ->
        Result.bind (absent path now_members was_members " is present, recorded missing")
        @@ fun () ->
        first
          (fun (k, w) ->
            match find k now_members with
            | Some (_, v) when not (skip k) -> go (key path k) w v
            | Some _ | None -> Ok ())
          was_members
    | Array was_items, Array now_items ->
        if List.compare_lengths was_items now_items <> 0 then
          Error
            (Printf.sprintf "%s has %d elements, recorded %d" path (List.length now_items)
               (List.length was_items))
        else
          first
            (fun (i, (w, v)) -> go (Printf.sprintf "%s[%d]" path i) w v)
            (List.mapi (fun i pair -> (i, pair)) (List.combine was_items now_items))
    | Number a, Number b | String a, String b when String.equal a b -> Ok ()
    | Bool a, Bool b when Bool.equal a b -> Ok ()
    | Null, Null -> Ok ()
    | _ ->
        Error
          (Printf.sprintf "%s is %s, recorded %s"
             (if String.equal path "" then "(root)" else path)
             (to_string now) (to_string was))
  in
  go "" recorded fresh
