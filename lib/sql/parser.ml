module Tuple = Cddpd_storage.Tuple

exception Parse_error of string

type state = { mutable tokens : Lexer.token list }

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let peek st =
  match st.tokens with
  | [] -> Lexer.Eof
  | tok :: _ -> tok

let advance st =
  match st.tokens with
  | [] -> ()
  | _ :: rest -> st.tokens <- rest

let expect st tok =
  let got = peek st in
  if got = tok then advance st
  else fail "expected %s but found %s" (Lexer.token_to_string tok) (Lexer.token_to_string got)

let parse_ident st =
  match peek st with
  | Lexer.Ident name ->
      advance st;
      name
  | tok -> fail "expected an identifier but found %s" (Lexer.token_to_string tok)

let parse_literal st =
  match peek st with
  | Lexer.Int_lit v ->
      advance st;
      Tuple.Int v
  | Lexer.Str_lit s ->
      advance st;
      Tuple.Text s
  | tok -> fail "expected a literal but found %s" (Lexer.token_to_string tok)

let parse_cmp st =
  match peek st with
  | Lexer.Op_eq -> advance st; Ast.Eq
  | Lexer.Op_lt -> advance st; Ast.Lt
  | Lexer.Op_le -> advance st; Ast.Le
  | Lexer.Op_gt -> advance st; Ast.Gt
  | Lexer.Op_ge -> advance st; Ast.Ge
  | tok -> fail "expected a comparison operator but found %s" (Lexer.token_to_string tok)

let parse_predicate st =
  let column = parse_ident st in
  match peek st with
  | Lexer.Kw_between ->
      advance st;
      let low = parse_literal st in
      expect st Lexer.Kw_and;
      let high = parse_literal st in
      Ast.Between { column; low; high }
  | _ ->
      let op = parse_cmp st in
      let value = parse_literal st in
      Ast.Cmp { column; op; value }

let parse_conjunction st =
  let rec go acc =
    let pred = parse_predicate st in
    match peek st with
    | Lexer.Kw_and ->
        advance st;
        go (pred :: acc)
    | _ -> List.rev (pred :: acc)
  in
  go []

let parse_optional_where st =
  match peek st with
  | Lexer.Kw_where ->
      advance st;
      parse_conjunction st
  | _ -> []

(* One element of a select list: a column or an aggregate call. *)
let parse_select_element st =
  match peek st with
  | Lexer.Kw_count ->
      advance st;
      expect st Lexer.Lparen;
      expect st Lexer.Star;
      expect st Lexer.Rparen;
      `Agg Ast.Count_star
  | Lexer.Kw_sum ->
      advance st;
      expect st Lexer.Lparen;
      let column = parse_ident st in
      expect st Lexer.Rparen;
      `Agg (Ast.Sum column)
  | _ -> `Column (parse_ident st)

let parse_select st =
  expect st Lexer.Kw_select;
  let projection =
    match peek st with
    | Lexer.Star ->
        advance st;
        `Star
    | _ ->
        let rec go acc =
          let element = parse_select_element st in
          match peek st with
          | Lexer.Comma ->
              advance st;
              go (element :: acc)
          | _ -> List.rev (element :: acc)
        in
        `Elements (go [])
  in
  expect st Lexer.Kw_from;
  let table = parse_ident st in
  let where = parse_optional_where st in
  let group_by =
    match peek st with
    | Lexer.Kw_group ->
        advance st;
        expect st Lexer.Kw_by;
        Some (parse_ident st)
    | _ -> None
  in
  match (projection, group_by) with
  | `Star, None -> Ast.Select { projection = Ast.Star; table; where }
  | `Elements elements, None ->
      let columns =
        List.map
          (fun element ->
            match element with
            | `Column c -> c
            | `Agg _ -> fail "aggregate requires GROUP BY")
          elements
      in
      Ast.Select { projection = Ast.Columns columns; table; where }
  | `Elements [ `Column g; `Agg aggregate ], Some group ->
      if not (String.equal g group) then
        fail "GROUP BY column %s does not match selected column %s" group g;
      Ast.Select_agg { table; group_by = group; aggregate; where }
  | `Elements _, Some _ ->
      fail "aggregate selects must have the form SELECT g, AGG(...) ... GROUP BY g"
  | `Star, Some _ -> fail "GROUP BY requires an explicit select list"

let parse_insert st =
  expect st Lexer.Kw_insert;
  expect st Lexer.Kw_into;
  let table = parse_ident st in
  expect st Lexer.Kw_values;
  expect st Lexer.Lparen;
  let rec go acc =
    let v = parse_literal st in
    match peek st with
    | Lexer.Comma ->
        advance st;
        go (v :: acc)
    | _ -> List.rev (v :: acc)
  in
  let values = go [] in
  expect st Lexer.Rparen;
  Ast.Insert { table; values }

let parse_delete st =
  expect st Lexer.Kw_delete;
  expect st Lexer.Kw_from;
  let table = parse_ident st in
  let where = parse_optional_where st in
  Ast.Delete { table; where }

let parse_update st =
  expect st Lexer.Kw_update;
  let table = parse_ident st in
  expect st Lexer.Kw_set;
  let rec go acc =
    let column = parse_ident st in
    expect st Lexer.Op_eq;
    let value = parse_literal st in
    match peek st with
    | Lexer.Comma ->
        advance st;
        go ((column, value) :: acc)
    | _ -> List.rev ((column, value) :: acc)
  in
  let assignments = go [] in
  let where = parse_optional_where st in
  Ast.Update { table; assignments; where }

let parse_statement st =
  let statement =
    match peek st with
    | Lexer.Kw_select -> parse_select st
    | Lexer.Kw_insert -> parse_insert st
    | Lexer.Kw_delete -> parse_delete st
    | Lexer.Kw_update -> parse_update st
    | tok ->
        fail "expected SELECT, INSERT, DELETE or UPDATE but found %s"
          (Lexer.token_to_string tok)
  in
  (match peek st with
  | Lexer.Semicolon -> advance st
  | _ -> ());
  expect st Lexer.Eof;
  statement

let parse_exn input =
  let tokens =
    try Lexer.tokenize input
    with Lexer.Lex_error { position; message } ->
      fail "lexical error at offset %d: %s" position message
  in
  parse_statement { tokens }

let parse input =
  match parse_exn input with
  | statement -> Ok statement
  | exception Parse_error message -> Error message

let parse_cached cache input =
  match Template.find_exact cache input with
  | Some entry -> Ok entry
  | None -> (
      match parse_exn input with
      | statement -> Ok (Template.add_exact cache input statement)
      | exception Parse_error message -> Error message)
