(** Fixed-size pages, the unit of disk I/O and buffering.

    A page is a mutable byte buffer of {!size} bytes with little-endian
    accessors for the integer widths used by the storage structures.  All
    offsets are byte offsets from the start of the page; accessors raise
    [Invalid_argument] when the access would fall outside the page. *)

val size : int
(** Page size in bytes (4096). *)

type t
(** A single page buffer. *)

val create : unit -> t
(** A fresh zeroed page. *)

val get_i64 : t -> int -> int
(** Read a 64-bit signed integer. *)

val set_i64 : t -> int -> int -> unit
(** Write a 64-bit signed integer. *)

val get_i32 : t -> int -> int
(** Read a 32-bit signed integer (sign-extended). *)

val set_i32 : t -> int -> int -> unit
(** Write the low 32 bits of an integer. *)

val get_u16 : t -> int -> int
(** Read an unsigned 16-bit integer. *)

val set_u16 : t -> int -> int -> unit
(** Write an unsigned 16-bit integer; raises [Invalid_argument] if the value
    does not fit. *)

val get_u8 : t -> int -> int
(** Read an unsigned byte. *)

val set_u8 : t -> int -> int -> unit
(** Write an unsigned byte; raises [Invalid_argument] if the value does not
    fit. *)

val get_bytes : t -> pos:int -> len:int -> bytes
(** Extract [len] raw bytes starting at [pos]. *)

val set_bytes : t -> pos:int -> bytes -> unit
(** Write raw bytes starting at [pos]. *)

val move : t -> src:int -> dst:int -> len:int -> unit
(** [move t ~src ~dst ~len] copies [len] bytes within the page; the regions
    may overlap. *)

val to_bytes : t -> bytes
(** The page's underlying buffer, as a view (not a copy).  Intended for
    zero-copy scan paths inside the storage layer; mutating it bypasses
    dirty tracking. *)
