(** JSON values, the repository's one printer, escaper and parser.

    A number keeps the text it was printed or read with, so a value read
    back from a file compares "as printed" and no float makes a round
    trip through binary. *)

type t =
  | Null
  | Bool of bool
  | Number of string  (** the literal as printed, e.g. ["0.125"] *)
  | String of string
  | Array of t list
  | Object of (string * t) list  (** members in print order *)

val int : int -> t

val fixed : int -> float -> t
(** [fixed d x] is [x] printed with [d] decimals ([%.*f]); [Null] when
    [x] is not finite, since JSON has no NaN or infinity. *)

val to_string : t -> string
(** The compact form: no whitespace; quote, backslash and control
    characters escaped in strings. *)

val parse : string -> (t, string) result
(** One JSON value, optionally surrounded by whitespace.  Malformed
    input — truncated, a bad escape or number, trailing bytes — is an
    [Error] naming the byte offset; it never raises. *)

val diff : skip:(string -> bool) -> recorded:t -> t -> string list
(** [diff ~skip ~recorded fresh] walks both values leaf by leaf: objects
    must have the same keys (in any order), arrays the same lengths, and
    every leaf must be equal, numbers compared as printed.  A member
    whose key satisfies [skip] must be present but its value is not
    compared.  Returns one message per differing path, in document order,
    e.g. [cells[2].whatif.measured is 1, recorded 81940]; the empty list
    when the values match.  After 20 messages, one last line counts the
    rest. *)
