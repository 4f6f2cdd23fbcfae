type value = Int of int | Text of string

type t = value array

let equal (a : t) (b : t) =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> x = y) a b

let compare_value a b =
  match (a, b) with
  | Int x, Int y -> compare x y
  | Text x, Text y -> String.compare x y
  | Int _, Text _ -> -1
  | Text _, Int _ -> 1

let pp_value ppf v =
  match v with
  | Int i -> Format.pp_print_int ppf i
  | Text s -> Format.fprintf ppf "'%s'" s

let pp ppf t =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_array
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       pp_value)
    t

let to_string t = Format.asprintf "%a" pp t

let int_exn v =
  match v with Int i -> i | Text _ -> invalid_arg "Tuple.int_exn: Text value"

let text_exn v =
  match v with Text s -> s | Int _ -> invalid_arg "Tuple.text_exn: Int value"

let tag_int = 0
let tag_text = 1

let encoded_size t =
  Array.fold_left
    (fun acc v ->
      match v with Int _ -> acc + 1 + 8 | Text s -> acc + 1 + 2 + String.length s)
    2 t

let encode t =
  let n = Array.length t in
  if n > 0xFFFF then invalid_arg "Tuple.encode: too many fields";
  let buf = Bytes.create (encoded_size t) in
  Bytes.set_uint16_le buf 0 n;
  let pos = ref 2 in
  Array.iter
    (fun v ->
      match v with
      | Int i ->
          Bytes.set_uint8 buf !pos tag_int;
          Bytes.set_int64_le buf (!pos + 1) (Int64.of_int i);
          pos := !pos + 9
      | Text s ->
          if String.length s > 0xFFFF then invalid_arg "Tuple.encode: text too long";
          Bytes.set_uint8 buf !pos tag_text;
          Bytes.set_uint16_le buf (!pos + 1) (String.length s);
          Bytes.blit_string s 0 buf (!pos + 3) (String.length s);
          pos := !pos + 3 + String.length s)
    t;
  buf

let field_count buf =
  if Bytes.length buf < 2 then invalid_arg "Tuple.field_count: malformed tuple";
  Bytes.get_uint16_le buf 0

let get_field_at buf ~base i =
  let fail () = invalid_arg "Tuple.get_field: malformed tuple" in
  if base < 0 || base + 2 > Bytes.length buf then fail ();
  let n = Bytes.get_uint16_le buf base in
  if i < 0 || i >= n then invalid_arg "Tuple.get_field: index out of range";
  (* Walk the fields; int fields have fixed width so the common all-int
     case costs a few adds per skipped field. *)
  let rec seek pos remaining =
    if pos >= Bytes.length buf then fail ();
    let tag = Bytes.get_uint8 buf pos in
    if remaining = 0 then
      if tag = tag_int then begin
        if pos + 9 > Bytes.length buf then fail ();
        Int (Int64.to_int (Bytes.get_int64_le buf (pos + 1)))
      end
      else if tag = tag_text then begin
        if pos + 3 > Bytes.length buf then fail ();
        let len = Bytes.get_uint16_le buf (pos + 1) in
        if pos + 3 + len > Bytes.length buf then fail ();
        Text (Bytes.sub_string buf (pos + 3) len)
      end
      else fail ()
    else if tag = tag_int then seek (pos + 9) (remaining - 1)
    else if tag = tag_text then begin
      if pos + 3 > Bytes.length buf then fail ();
      seek (pos + 3 + Bytes.get_uint16_le buf (pos + 1)) (remaining - 1)
    end
    else fail ()
  in
  seek (base + 2) i

let get_field buf i = get_field_at buf ~base:0 i

let int_field_offset i = 2 + (9 * i) + 1

let int_field_of_offset off =
  let i = (off - int_field_offset 0) / 9 in
  if i >= 0 && int_field_offset i = off then Some i else None

let int_prefix buf ~base f =
  if base < 0 || base + 2 > Bytes.length buf then invalid_arg "Tuple.int_prefix: malformed tuple";
  let n = Bytes.get_uint16_le buf base in
  let rec walk i pos =
    if i < n && pos + 9 <= Bytes.length buf && Bytes.get_uint8 buf pos = tag_int then begin
      f i (Int64.to_int (Bytes.get_int64_le buf (pos + 1)));
      walk (i + 1) (pos + 9)
    end
    else i
  in
  walk 0 (base + 2)

let decode_at buf ~base =
  let fail () = invalid_arg "Tuple.decode: malformed tuple" in
  if base < 0 || base + 2 > Bytes.length buf then fail ();
  let n = Bytes.get_uint16_le buf base in
  let pos = ref (base + 2) in
  let read_field () =
    if !pos >= Bytes.length buf then fail ();
    let tag = Bytes.get_uint8 buf !pos in
    if tag = tag_int then begin
      if !pos + 9 > Bytes.length buf then fail ();
      let v = Int64.to_int (Bytes.get_int64_le buf (!pos + 1)) in
      pos := !pos + 9;
      Int v
    end
    else if tag = tag_text then begin
      if !pos + 3 > Bytes.length buf then fail ();
      let len = Bytes.get_uint16_le buf (!pos + 1) in
      if !pos + 3 + len > Bytes.length buf then fail ();
      let s = Bytes.sub_string buf (!pos + 3) len in
      pos := !pos + 3 + len;
      Text s
    end
    else fail ()
  in
  (* Fields must be read left to right; Array.init has unspecified order. *)
  let out = Array.make n (Int 0) in
  for i = 0 to n - 1 do
    out.(i) <- read_field ()
  done;
  out

let decode buf = decode_at buf ~base:0
