(* SQL front-end tests: lexer, parser, printer, and the parse/print
   round-trip property. *)

module Ast = Cddpd_sql.Ast
module Lexer = Cddpd_sql.Lexer
module Parser = Cddpd_sql.Parser
module Printer = Cddpd_sql.Printer
module Template = Cddpd_sql.Template
module Tuple = Cddpd_storage.Tuple

let statement_testable =
  Alcotest.testable (fun ppf s -> Printer.pp ppf s) Ast.equal_statement

let parse_ok sql =
  match Parser.parse sql with
  | Ok s -> s
  | Error message -> Alcotest.failf "parse %S failed: %s" sql message

(* -- lexer ------------------------------------------------------------------- *)

let test_lexer_basic () =
  let tokens = Lexer.tokenize "SELECT a FROM t WHERE a = 5" in
  Alcotest.(check int) "token count" 9 (List.length tokens);
  Alcotest.(check bool) "keywords recognised" true
    (List.mem Lexer.Kw_select tokens && List.mem Lexer.Kw_where tokens)

let test_lexer_case_insensitive () =
  Alcotest.(check bool) "lowercase keywords" true
    (Lexer.tokenize "select A from T" = Lexer.tokenize "SELECT a FROM t")

let test_lexer_operators () =
  let tokens = Lexer.tokenize "<= >= < > =" in
  Alcotest.(check bool) "all operators" true
    (tokens = [ Lexer.Op_le; Lexer.Op_ge; Lexer.Op_lt; Lexer.Op_gt; Lexer.Op_eq; Lexer.Eof ])

let test_lexer_string_escape () =
  let tokens = Lexer.tokenize "'it''s'" in
  Alcotest.(check bool) "escaped quote" true (tokens = [ Lexer.Str_lit "it's"; Lexer.Eof ])

let test_lexer_negative_int () =
  Alcotest.(check bool) "negative" true
    (Lexer.tokenize "-42" = [ Lexer.Int_lit (-42); Lexer.Eof ])

(* 18 digits ride the accumulate-in-place fast path; longer literals fall
   back to int_of_string, which must still reject overflow as before. *)
let test_lexer_int_fast_path_bounds () =
  Alcotest.(check bool) "18 digits" true
    (Lexer.tokenize "123456789012345678"
    = [ Lexer.Int_lit 123456789012345678; Lexer.Eof ]);
  Alcotest.(check bool) "overflow still raises" true
    (match Lexer.tokenize "99999999999999999999999" with
    | _ -> false
    | exception Lexer.Lex_error _ -> true)

let test_lexer_unterminated_string () =
  Alcotest.(check bool) "unterminated raises" true
    (match Lexer.tokenize "'oops" with
    | _ -> false
    | exception Lexer.Lex_error _ -> true)

let test_lexer_bad_char () =
  Alcotest.(check bool) "bad char raises" true
    (match Lexer.tokenize "a ! b" with
    | _ -> false
    | exception Lexer.Lex_error _ -> true)

(* -- parser ------------------------------------------------------------------ *)

let test_parse_point_query () =
  (* The paper's workload template. *)
  let s = parse_ok "SELECT a FROM t WHERE a = 12345" in
  Alcotest.check statement_testable "point query"
    (Ast.Select
       {
         projection = Ast.Columns [ "a" ];
         table = "t";
         where = [ Ast.Cmp { column = "a"; op = Ast.Eq; value = Tuple.Int 12345 } ];
       })
    s

let test_parse_star () =
  let s = parse_ok "SELECT * FROM t" in
  Alcotest.check statement_testable "star"
    (Ast.Select { projection = Ast.Star; table = "t"; where = [] })
    s

let test_parse_multi_column_projection () =
  let s = parse_ok "SELECT a, b, c FROM t" in
  Alcotest.check statement_testable "columns"
    (Ast.Select { projection = Ast.Columns [ "a"; "b"; "c" ]; table = "t"; where = [] })
    s

let test_parse_conjunction () =
  let s = parse_ok "SELECT a FROM t WHERE a = 1 AND b > 2 AND c <= 3" in
  match s with
  | Ast.Select { where; _ } -> Alcotest.(check int) "three predicates" 3 (List.length where)
  | Ast.Select_agg _ | Ast.Insert _ | Ast.Delete _ | Ast.Update _ ->
      Alcotest.fail "not a select"

let test_parse_between () =
  let s = parse_ok "SELECT a FROM t WHERE b BETWEEN 10 AND 20" in
  Alcotest.check statement_testable "between"
    (Ast.Select
       {
         projection = Ast.Columns [ "a" ];
         table = "t";
         where = [ Ast.Between { column = "b"; low = Tuple.Int 10; high = Tuple.Int 20 } ];
       })
    s

let test_parse_string_literal () =
  let s = parse_ok "SELECT a FROM t WHERE name = 'bob'" in
  Alcotest.check statement_testable "text literal"
    (Ast.Select
       {
         projection = Ast.Columns [ "a" ];
         table = "t";
         where = [ Ast.Cmp { column = "name"; op = Ast.Eq; value = Tuple.Text "bob" } ];
       })
    s

let test_parse_insert () =
  let s = parse_ok "INSERT INTO t VALUES (1, 'x', -3)" in
  Alcotest.check statement_testable "insert"
    (Ast.Insert { table = "t"; values = [ Tuple.Int 1; Tuple.Text "x"; Tuple.Int (-3) ] })
    s

let test_parse_delete () =
  let s = parse_ok "DELETE FROM t WHERE a = 5 AND b < 3" in
  (match s with
  | Ast.Delete { table = "t"; where } ->
      Alcotest.(check int) "two predicates" 2 (List.length where)
  | _ -> Alcotest.fail "not a delete");
  Alcotest.check statement_testable "unfiltered delete"
    (Ast.Delete { table = "t"; where = [] })
    (parse_ok "DELETE FROM t")

let test_parse_update () =
  let s = parse_ok "UPDATE t SET a = 1, b = 'x' WHERE c >= 7" in
  Alcotest.check statement_testable "update"
    (Ast.Update
       {
         table = "t";
         assignments = [ ("a", Tuple.Int 1); ("b", Tuple.Text "x") ];
         where = [ Ast.Cmp { column = "c"; op = Ast.Ge; value = Tuple.Int 7 } ];
       })
    s

let test_parse_aggregate () =
  Alcotest.check statement_testable "count"
    (Ast.Select_agg { table = "t"; group_by = "a"; aggregate = Ast.Count_star; where = [] })
    (parse_ok "SELECT a, COUNT(*) FROM t GROUP BY a");
  Alcotest.check statement_testable "sum with where"
    (Ast.Select_agg
       {
         table = "t";
         group_by = "a";
         aggregate = Ast.Sum "b";
         where = [ Ast.Cmp { column = "a"; op = Ast.Eq; value = Tuple.Int 5 } ];
       })
    (parse_ok "SELECT a, SUM(b) FROM t WHERE a = 5 GROUP BY a")

let test_parse_aggregate_errors () =
  List.iter
    (fun sql ->
      match Parser.parse sql with
      | Ok _ -> Alcotest.failf "expected %S to fail" sql
      | Error _ -> ())
    [
      "SELECT COUNT(*) FROM t";               (* aggregate without group column *)
      "SELECT a, COUNT(*) FROM t";            (* missing GROUP BY *)
      "SELECT a, COUNT(*) FROM t GROUP BY b"; (* mismatched group column *)
      "SELECT * FROM t GROUP BY a";           (* star with GROUP BY *)
      "SELECT a, SUM() FROM t GROUP BY a";
      "SELECT a, b, COUNT(*) FROM t GROUP BY a";
    ]

let test_parse_trailing_semicolon () =
  Alcotest.check statement_testable "semicolon tolerated"
    (parse_ok "SELECT * FROM t") (parse_ok "SELECT * FROM t;")

let test_parse_errors () =
  let cases =
    [
      "SELECT";
      "SELECT FROM t";
      "SELECT a t";
      "SELECT a FROM t WHERE";
      "SELECT a FROM t WHERE a";
      "SELECT a FROM t WHERE a = ";
      "SELECT a FROM t WHERE a BETWEEN 1";
      "INSERT t VALUES (1)";
      "INSERT INTO t VALUES ()";
      "INSERT INTO t VALUES (1";
      "DELETE t";
      "DELETE FROM t WHERE";
      "UPDATE t";
      "UPDATE t SET";
      "UPDATE t SET a";
      "UPDATE t SET a = ";
      "SELECT a FROM t extra";
    ]
  in
  List.iter
    (fun sql ->
      match Parser.parse sql with
      | Ok _ -> Alcotest.failf "expected %S to fail" sql
      | Error _ -> ())
    cases

let test_parse_exn_raises () =
  Alcotest.(check bool) "parse_exn raises" true
    (match Parser.parse_exn "garbage" with
    | _ -> false
    | exception Parser.Parse_error _ -> true)

(* -- printer ------------------------------------------------------------------ *)

let test_print_select () =
  Alcotest.(check string) "canonical form"
    "SELECT a FROM t WHERE a = 5 AND b BETWEEN 1 AND 2"
    (Printer.to_string
       (Ast.Select
          {
            projection = Ast.Columns [ "a" ];
            table = "t";
            where =
              [
                Ast.Cmp { column = "a"; op = Ast.Eq; value = Tuple.Int 5 };
                Ast.Between { column = "b"; low = Tuple.Int 1; high = Tuple.Int 2 };
              ];
          }))

let test_print_escapes_quotes () =
  Alcotest.(check string) "quotes doubled" "INSERT INTO t VALUES ('it''s')"
    (Printer.to_string (Ast.Insert { table = "t"; values = [ Tuple.Text "it's" ] }))

(* -- round-trip property ------------------------------------------------------- *)

let sql_keywords =
  [
    "select"; "from"; "where"; "and"; "between"; "insert"; "into"; "values";
    "delete"; "update"; "set"; "group"; "by"; "count"; "sum";
  ]

let ident_gen =
  QCheck.Gen.(
    map
      (fun (c, rest) ->
        let ident = String.make 1 c ^ rest in
        (* Keywords are not identifiers; rename the collisions. *)
        if List.mem ident sql_keywords then ident ^ "x" else ident)
      (pair (char_range 'a' 'z') (string_size ~gen:(char_range 'a' 'z') (int_bound 6))))

let value_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Tuple.Int i) (int_range (-1_000_000) 1_000_000);
        map (fun s -> Tuple.Text s) (string_size ~gen:(char_range 'a' 'z') (int_bound 10));
      ])

let cmp_gen = QCheck.Gen.oneofl [ Ast.Eq; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ]

let predicate_gen =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun column op value -> Ast.Cmp { column; op; value })
          ident_gen cmp_gen value_gen;
        map3
          (fun column low high -> Ast.Between { column; low; high })
          ident_gen value_gen value_gen;
      ])

let statement_gen =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun projection table where -> Ast.Select { projection; table; where })
          (oneof
             [
               return Ast.Star;
               map (fun cs -> Ast.Columns cs) (list_size (int_range 1 4) ident_gen);
             ])
          ident_gen
          (list_size (int_bound 4) predicate_gen);
        map2
          (fun table values -> Ast.Insert { table; values })
          ident_gen
          (list_size (int_range 1 5) value_gen);
        map2
          (fun table where -> Ast.Delete { table; where })
          ident_gen
          (list_size (int_bound 3) predicate_gen);
        map3
          (fun table assignments where -> Ast.Update { table; assignments; where })
          ident_gen
          (list_size (int_range 1 3) (pair ident_gen value_gen))
          (list_size (int_bound 3) predicate_gen);
        map3
          (fun (table, group_by) aggregate where ->
            Ast.Select_agg { table; group_by; aggregate; where })
          (pair ident_gen ident_gen)
          (oneof [ return Ast.Count_star; map (fun c -> Ast.Sum c) ident_gen ])
          (list_size (int_bound 3) predicate_gen);
      ])

let statement_arbitrary = QCheck.make ~print:Printer.to_string statement_gen

let roundtrip_prop =
  QCheck.Test.make ~name:"parse (print s) = s" ~count:1000 statement_arbitrary (fun s ->
      match Parser.parse (Printer.to_string s) with
      | Ok parsed -> Ast.equal_statement s parsed
      | Error _ -> false)

(* Fuzz: the parser must reject or accept but never crash with anything
   other than Parse_error. *)
let parser_total_prop =
  QCheck.Test.make ~name:"parser is total on arbitrary strings" ~count:2000
    QCheck.(string_of_size (QCheck.Gen.int_bound 60))
    (fun input ->
      match Parser.parse input with
      | Ok _ | Error _ -> true)

(* Fuzz on near-SQL: shuffled valid tokens are much better at reaching deep
   parser states than raw random bytes. *)
let token_soup_prop =
  QCheck.Test.make ~name:"parser is total on token soup" ~count:2000
    QCheck.(
      list_of_size (QCheck.Gen.int_bound 12)
        (oneofa
           [|
             "SELECT"; "FROM"; "WHERE"; "AND"; "BETWEEN"; "GROUP"; "BY"; "COUNT(*)";
             "SUM(a)"; "INSERT"; "INTO"; "VALUES"; "DELETE"; "UPDATE"; "SET"; "t";
             "a"; "b"; "*"; ","; "("; ")"; "="; "<"; ">="; "5"; "-3"; "'x'"; ";";
           |]))
    (fun tokens ->
      match Parser.parse (String.concat " " tokens) with
      | Ok _ | Error _ -> true)

(* -- template cache / parse_cached -------------------------------------------- *)

let parse_cached_ok cache sql =
  match Parser.parse_cached cache sql with
  | Ok entry -> entry
  | Error message -> Alcotest.failf "parse_cached %S failed: %s" sql message

let test_parse_cached_exact_hit () =
  let cache = Template.create () in
  let sql = "SELECT a FROM t WHERE a = 5" in
  let e1 = parse_cached_ok cache sql in
  let e2 = parse_cached_ok cache sql in
  Alcotest.(check bool) "same physical entry" true (e1 == e2);
  Alcotest.check statement_testable "matches fresh parse" (parse_ok sql)
    e1.Template.statement;
  let stats = Template.stats cache in
  Alcotest.(check int) "one exact hit" 1 stats.Template.exact_hits;
  Alcotest.(check int) "one miss" 1 stats.Template.misses;
  Alcotest.(check int) "one entry" 1 stats.Template.entries

(* Same-shape texts share nothing: each fresh text is parsed for real
   (one miss) and only a repeat of the exact text is a hit.  The literal
   twist puts a text literal where the first two texts have an int. *)
let test_parse_cached_same_shape () =
  let cache = Template.create () in
  let texts =
    [
      "SELECT a FROM t WHERE a = 5 AND b BETWEEN 1 AND 2";
      "SELECT a FROM t WHERE a = 7 AND b BETWEEN 30 AND 90";
      "SELECT a FROM t WHERE a = 'x' AND b BETWEEN 8 AND 9";
    ]
  in
  let check_all () =
    List.iter
      (fun sql ->
        Alcotest.check statement_testable
          (Printf.sprintf "parse_cached %S = parse" sql)
          (parse_ok sql) (parse_cached_ok cache sql).Template.statement)
      texts
  in
  check_all ();
  let stats = Template.stats cache in
  Alcotest.(check int) "each fresh text misses" 3 stats.Template.misses;
  Alcotest.(check int) "no hits yet" 0 stats.Template.exact_hits;
  check_all ();
  let stats = Template.stats cache in
  Alcotest.(check int) "repeats do not miss" 3 stats.Template.misses;
  Alcotest.(check int) "each repeat is an exact hit" 3 stats.Template.exact_hits;
  Alcotest.(check int) "one entry per text" 3 stats.Template.entries

let test_parse_cached_errors_match_parse () =
  let cache = Template.create () in
  List.iter
    (fun sql ->
      match (Parser.parse sql, Parser.parse_cached cache sql) with
      | Error fresh, Error cached ->
          Alcotest.(check string) (Printf.sprintf "error for %S" sql) fresh cached
      | Ok _, Ok _ -> Alcotest.failf "expected %S to fail" sql
      | _ -> Alcotest.failf "parse and parse_cached disagree on %S" sql)
    [ "SELECT a FROM t WHERE"; "SELECT a FROM t WHERE a = "; "a ! b"; "'oops" ]

(* The tentpole property: over printer-roundtripped random statements fed
   through ONE long-lived cache (so exact hits and misses both occur),
   parse_cached must agree with a fresh parse — and a second lookup of the
   same text must return the same physical entry. *)
let parse_cached_equiv_prop =
  let cache = Template.create () in
  QCheck.Test.make ~name:"parse_cached = parse over printed statements"
    ~count:1000 statement_arbitrary (fun s ->
      let sql = Printer.to_string s in
      match (Parser.parse sql, Parser.parse_cached cache sql) with
      | Ok fresh, Ok entry -> (
          Ast.equal_statement fresh entry.Template.statement
          &&
          match Parser.parse_cached cache sql with
          | Ok again -> again == entry
          | Error _ -> false)
      | Error fresh, Error cached -> String.equal fresh cached
      | Ok _, Error _ | Error _, Ok _ -> false)

(* -- Ast helpers ---------------------------------------------------------------- *)

let test_referenced_columns () =
  let s = parse_ok "SELECT a, b FROM t WHERE c = 1 AND a > 0" in
  Alcotest.(check (list string)) "deduplicated, in order" [ "a"; "b"; "c" ]
    (Ast.referenced_columns s)

let () =
  Alcotest.run "sql"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic" `Quick test_lexer_basic;
          Alcotest.test_case "case insensitive" `Quick test_lexer_case_insensitive;
          Alcotest.test_case "operators" `Quick test_lexer_operators;
          Alcotest.test_case "string escapes" `Quick test_lexer_string_escape;
          Alcotest.test_case "negative int" `Quick test_lexer_negative_int;
          Alcotest.test_case "int fast-path bounds" `Quick
            test_lexer_int_fast_path_bounds;
          Alcotest.test_case "unterminated string" `Quick test_lexer_unterminated_string;
          Alcotest.test_case "bad character" `Quick test_lexer_bad_char;
        ] );
      ( "parser",
        [
          Alcotest.test_case "paper point query" `Quick test_parse_point_query;
          Alcotest.test_case "star" `Quick test_parse_star;
          Alcotest.test_case "projection list" `Quick test_parse_multi_column_projection;
          Alcotest.test_case "conjunction" `Quick test_parse_conjunction;
          Alcotest.test_case "between" `Quick test_parse_between;
          Alcotest.test_case "string literal" `Quick test_parse_string_literal;
          Alcotest.test_case "insert" `Quick test_parse_insert;
          Alcotest.test_case "delete" `Quick test_parse_delete;
          Alcotest.test_case "update" `Quick test_parse_update;
          Alcotest.test_case "aggregate" `Quick test_parse_aggregate;
          Alcotest.test_case "aggregate errors" `Quick test_parse_aggregate_errors;
          Alcotest.test_case "trailing semicolon" `Quick test_parse_trailing_semicolon;
          Alcotest.test_case "rejects malformed input" `Quick test_parse_errors;
          Alcotest.test_case "parse_exn" `Quick test_parse_exn_raises;
        ] );
      ( "printer",
        [
          Alcotest.test_case "select" `Quick test_print_select;
          Alcotest.test_case "quote escaping" `Quick test_print_escapes_quotes;
        ] );
      ( "roundtrip",
        [
          QCheck_alcotest.to_alcotest roundtrip_prop;
          QCheck_alcotest.to_alcotest parser_total_prop;
          QCheck_alcotest.to_alcotest token_soup_prop;
        ] );
      ( "template",
        [
          Alcotest.test_case "exact hit shares the entry" `Quick
            test_parse_cached_exact_hit;
          Alcotest.test_case "same-shape texts parse exactly" `Quick
            test_parse_cached_same_shape;
          Alcotest.test_case "errors match parse" `Quick
            test_parse_cached_errors_match_parse;
          QCheck_alcotest.to_alcotest parse_cached_equiv_prop;
        ] );
      ( "ast",
        [
          Alcotest.test_case "referenced columns" `Quick test_referenced_columns;
        ] );
    ]
