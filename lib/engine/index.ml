module Btree = Cddpd_storage.Btree
module Heap_file = Cddpd_storage.Heap_file
module Tuple = Cddpd_storage.Tuple
module Schema = Cddpd_catalog.Schema
module Index_def = Cddpd_catalog.Index_def

(* A seek's key interval in the tree's key space: inclusive [lo] and [hi]
   keys, rid components unbounded. *)
type bounds = { lo : int array; hi : int array }

type t = {
  def : Index_def.t;
  tree : Btree.t;
  positions : int array; (* tuple positions of the key columns *)
  layout : Filter.layout; (* where each key column sits in an entry *)
  whole : bounds; (* the unbounded seek's interval: every entry *)
}

let def t = t.def

let layout t = t.layout

let key_positions schema index =
  List.map
    (fun column ->
      match Schema.column_type schema column with
      | None ->
          invalid_arg
            (Printf.sprintf "Index.build: column %s not in table %s" column
               schema.Schema.name)
      | Some Schema.Text_type ->
          invalid_arg
            (Printf.sprintf "Index.build: column %s is text; only integer keys supported"
               column)
      | Some Schema.Int_type -> Schema.column_index_exn schema column)
    (Index_def.columns index)
  |> Array.of_list

let physical_key positions tuple (rid : Heap_file.rid) =
  let n = Array.length positions in
  let key = Array.make (n + 2) 0 in
  for i = 0 to n - 1 do
    key.(i) <- Tuple.int_exn tuple.(positions.(i))
  done;
  key.(n) <- rid.Heap_file.page;
  key.(n + 1) <- rid.Heap_file.slot;
  key

(* Lexicographic sort of physical keys.  When the observed range of every
   component fits a packed 62-bit word, each key is packed into one int
   (high component in high bits, values offset to be nonnegative), the
   packed ints are sorted monomorphically, and the components are
   unpacked back in place — about 4x faster than comparator sort on the
   key arrays.  Keys whose ranges don't fit (or overflow [hi - lo]) fall
   back to the comparator. *)
let sort_keys ~key_len (keys : int array array) =
  let n = Array.length keys in
  if n > 1 then begin
    let lo = Array.make key_len max_int and hi = Array.make key_len min_int in
    Array.iter
      (fun key ->
        for j = 0 to key_len - 1 do
          let v = key.(j) in
          if v < lo.(j) then lo.(j) <- v;
          if v > hi.(j) then hi.(j) <- v
        done)
      keys;
    let bits_of_range j =
      let range = hi.(j) - lo.(j) in
      if range < 0 then 63 (* subtraction overflowed: the span needs the full word *)
      else begin
        let b = ref 1 in
        while range lsr !b <> 0 do
          incr b
        done;
        !b
      end
    in
    let widths = Array.init key_len bits_of_range in
    let total = Array.fold_left ( + ) 0 widths in
    if total <= 62 then begin
      let packed =
        Array.map
          (fun key ->
            let p = ref 0 in
            for j = 0 to key_len - 1 do
              p := (!p lsl widths.(j)) lor (key.(j) - lo.(j))
            done;
            !p)
          keys
      in
      Cddpd_util.Int_sort.sort packed;
      Array.iteri
        (fun i p ->
          let key = keys.(i) in
          let p = ref p in
          for j = key_len - 1 downto 0 do
            key.(j) <- (!p land ((1 lsl widths.(j)) - 1)) + lo.(j);
            p := !p lsr widths.(j)
          done)
        packed
    end
    else begin
      let compare_keys a b =
        let rec go i =
          if i = key_len then 0
          else
            let c = Int.compare a.(i) b.(i) in
            if c <> 0 then c else go (i + 1)
        in
        go 0
      in
      Array.sort compare_keys keys
    end
  end

let of_sorted_keys pool index positions keys =
  let key_len = Array.length positions + 2 in
  {
    def = index;
    tree = Btree.bulk_load pool ~key_len keys;
    positions;
    layout = Filter.entry_layout (Index_def.columns index);
    whole = { lo = Array.make key_len min_int; hi = Array.make key_len max_int };
  }

(* One heap scan through the kernel: each live record's key columns are
   read in place, no tuple is decoded, and the keys land in an array
   sized by the live-tuple count. *)
let build pool schema heap index =
  let positions = key_positions schema index in
  let layout = Filter.heap_layout schema in
  let n = Array.length positions in
  let keys = Array.make (Heap_file.n_tuples heap) [||] in
  let filled = ref 0 in
  Heap_file.scan heap ~ranges:Cddpd_storage.Ranges.none (fun buf base page slot ->
      let key = Array.make (n + 2) 0 in
      for i = 0 to n - 1 do
        key.(i) <- Filter.read_int layout positions.(i) buf base
      done;
      key.(n) <- page;
      key.(n + 1) <- slot;
      keys.(!filled) <- key;
      incr filled);
  assert (!filled = Array.length keys);
  sort_keys ~key_len:(n + 2) keys;
  of_sorted_keys pool index positions keys

let build_of_rows pool schema index ~rows ~rids =
  if Array.length rows <> Array.length rids then
    invalid_arg "Index.build_of_rows: rows and rids differ in length";
  let positions = key_positions schema index in
  let keys =
    Array.init (Array.length rows) (fun i ->
        physical_key positions rows.(i) rids.(i))
  in
  sort_keys ~key_len:(Array.length positions + 2) keys;
  of_sorted_keys pool index positions keys

let insert_entry t tuple rid = Btree.insert t.tree (physical_key t.positions tuple rid)

let delete_entry t tuple rid = Btree.delete t.tree (physical_key t.positions tuple rid)

(* An empty range (lo > hi, as {!Filter.interval} gives at the int edges)
   makes the tree fetch no page. *)
let bounds t { Filter.eq; range } =
  match (eq, range) with
  | [], None -> t.whole
  | _ :: _, _ | [], Some _ ->
      let key_len = Array.length t.positions + 2 in
      let lo = Array.make key_len min_int in
      let hi = Array.make key_len max_int in
      List.iteri
        (fun i v ->
          lo.(i) <- v;
          hi.(i) <- v)
        eq;
      Option.iter
        (fun (l, h) ->
          let next = List.length eq in
          lo.(next) <- l;
          hi.(next) <- h)
        range;
      { lo; hi }

let probe_slices t { lo; hi } ~ranges f = Btree.iter_range_slices t.tree ~lo ~hi ~ranges f

let probe t bounds =
  let n = Array.length t.positions in
  let rids = ref [] in
  probe_slices t bounds ~ranges:Cddpd_storage.Ranges.none (fun buf pos ->
      let field j = Int64.to_int (Bytes.get_int64_le buf (pos + (8 * j))) in
      rids := { Heap_file.page = field n; slot = field (n + 1) } :: !rids);
  List.rev !rids

let height t = Btree.height t.tree
