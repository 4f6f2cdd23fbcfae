(** Render AST statements back to SQL text.

    [Parser.parse_exn (to_string s)] is structurally equal to [s] for every
    well-formed statement; this round-trip is property-tested. *)

val to_string : Ast.statement -> string
(** The canonical rendering, without a trailing semicolon. *)

val pp : Format.formatter -> Ast.statement -> unit
