(** Recursive-descent parser for the SQL subset.

    Grammar:
    {v
    statement  ::= select | insert | delete | update
    select     ::= SELECT projection FROM ident [WHERE conjunction] [';']
    projection ::= '*' | ident (',' ident)*
    conjunction::= predicate (AND predicate)*
    predicate  ::= ident cmp literal
                 | ident BETWEEN literal AND literal
    cmp        ::= '=' | '<' | '<=' | '>' | '>='
    insert     ::= INSERT INTO ident VALUES '(' literal (',' literal)* ')' [';']
    delete     ::= DELETE FROM ident [WHERE conjunction] [';']
    update     ::= UPDATE ident SET ident '=' literal (',' ident '=' literal)*
                   [WHERE conjunction] [';']
    literal    ::= integer | string
    v} *)

exception Parse_error of string

val parse : string -> (Ast.statement, string) result
(** Parse one statement. *)

val parse_exn : string -> Ast.statement
(** Like {!parse} but raises {!Parse_error}. *)

val parse_cached : 'p Template.t -> string -> ('p Template.entry, string) result
(** Like {!parse}, but a repeated text returns its cached entry for one
    string hash; only exact texts are reused.  A fresh text is lexed,
    parsed and added to [cache].  The returned statement (and any error
    message) is bit-identical to a fresh {!parse} of the same input; failed
    parses are never cached. *)
