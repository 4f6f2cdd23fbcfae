(** Tuples (records) and their on-page serialization.

    A tuple is an array of typed values.  The encoding is self-describing
    (per-field tags) so heap files can store tuples without consulting the
    catalog. *)

type value = Int of int | Text of string

type t = value array

val equal : t -> t -> bool
(** Structural equality. *)

val compare_value : value -> value -> int
(** Total order: all [Int]s sort before all [Text]s. *)

val pp_value : Format.formatter -> value -> unit
(** Render a value ([Text] is single-quoted). *)

val pp : Format.formatter -> t -> unit
(** Render a tuple as [(v1, v2, ...)]. *)

val to_string : t -> string
(** [Format.asprintf "%a" pp]. *)

val int_exn : value -> int
(** Extract an [Int]; raises [Invalid_argument] on [Text]. *)

val text_exn : value -> string
(** Extract a [Text]; raises [Invalid_argument] on [Int]. *)

val encoded_size : t -> int
(** Number of bytes {!encode} will produce. *)

val encode : t -> bytes
(** Serialize. *)

val decode : bytes -> t
(** Deserialize; raises [Invalid_argument] on malformed input. *)

val decode_at : bytes -> base:int -> t
(** Like {!decode} for a tuple encoded at offset [base] inside a larger
    buffer (e.g. directly inside a page). *)

val int_field_offset : int -> int
(** Byte offset, from the start of an encoded tuple, of field [i]'s
    64-bit little-endian payload when fields [0..i] are all [Int]s: the
    fixed offsets the scan kernels test ranges at. *)

val int_field_of_offset : int -> int option
(** The inverse of {!int_field_offset}: [Some i] when [off] is
    [int_field_offset i], [None] for any other offset. *)

val int_prefix : bytes -> base:int -> (int -> int -> unit) -> int
(** [int_prefix buf ~base f] calls [f i v] on each field [i] of the
    leading run of [Int] fields of the tuple encoded at [base], in field
    order, and returns how many there are: the fields that sit at
    {!int_field_offset}.  It stops at the first [Text] field, and at a
    field that would run past the buffer. *)

val field_count : bytes -> int
(** Number of fields of an encoded tuple without decoding it. *)

val get_field : bytes -> int -> value
(** [get_field buf i] decodes only field [i] of an encoded tuple — the
    executor's scan fast path.  Raises [Invalid_argument] on malformed
    input or out-of-range index. *)

val get_field_at : bytes -> base:int -> int -> value
(** Like {!get_field} for a tuple encoded at offset [base] inside a larger
    buffer (e.g. directly inside a page) — the zero-copy scan path. *)
