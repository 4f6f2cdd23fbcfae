let size = 4096

type t = bytes

let create () = Bytes.make size '\000'

let check t pos len name =
  if pos < 0 || pos + len > Bytes.length t then
    invalid_arg (Printf.sprintf "Page.%s: offset %d (+%d) out of bounds" name pos len)

let get_i64 t pos =
  check t pos 8 "get_i64";
  Int64.to_int (Bytes.get_int64_le t pos)

let set_i64 t pos v =
  check t pos 8 "set_i64";
  Bytes.set_int64_le t pos (Int64.of_int v)

let get_i32 t pos =
  check t pos 4 "get_i32";
  Int32.to_int (Bytes.get_int32_le t pos)

let set_i32 t pos v =
  check t pos 4 "set_i32";
  Bytes.set_int32_le t pos (Int32.of_int v)

let get_u16 t pos =
  check t pos 2 "get_u16";
  Bytes.get_uint16_le t pos

let set_u16 t pos v =
  check t pos 2 "set_u16";
  if v < 0 || v > 0xFFFF then invalid_arg "Page.set_u16: value out of range";
  Bytes.set_uint16_le t pos v

let get_u8 t pos =
  check t pos 1 "get_u8";
  Bytes.get_uint8 t pos

let set_u8 t pos v =
  check t pos 1 "set_u8";
  if v < 0 || v > 0xFF then invalid_arg "Page.set_u8: value out of range";
  Bytes.set_uint8 t pos v

let get_bytes t ~pos ~len =
  check t pos len "get_bytes";
  Bytes.sub t pos len

let set_bytes t ~pos b =
  check t pos (Bytes.length b) "set_bytes";
  Bytes.blit b 0 t pos (Bytes.length b)

let to_bytes t = t

let move t ~src ~dst ~len =
  check t src len "move";
  check t dst len "move";
  Bytes.blit t src t dst len

