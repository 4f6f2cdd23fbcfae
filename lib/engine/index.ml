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

(* Lexicographic sort of the physical keys in [keys], flat: key [i] is
   [keys.(i * key_len)] onward, as {!Btree.bulk_load} takes them.  When
   the observed range of every component fits a packed 62-bit word, key
   [i] is packed into one int (high component in high bits, values
   offset to be nonnegative) and stored at [keys.(i)], which holds a
   component of key [i / key_len]: key 0 itself, read before the store,
   or a key already packed.  The [n] packed words are radix-sorted with
   the next [n] as scratch ({!Cddpd_util.Int_sort.sort_prefix};
   [key_len >= 2]), then unpacked in place from the last key down, each
   store landing at or past [i * key_len], beyond every word still to
   be read.  So the sort allocates nothing the size of the input, and no
   array per key.  Keys whose ranges don't fit (or overflow [hi - lo])
   fall back to a comparator sort of key numbers: a per-component radix
   sort would need eight 8-bit scatters per component, against four or
   five for a whole packed key. *)
let sort_keys ~key_len (keys : int array) =
  let n = Array.length keys / key_len in
  if n > 1 then begin
    let lo = Array.make key_len max_int and hi = Array.make key_len min_int in
    for i = 0 to n - 1 do
      for j = 0 to key_len - 1 do
        let v = keys.((i * key_len) + j) in
        if v < lo.(j) then lo.(j) <- v;
        if v > hi.(j) then hi.(j) <- v
      done
    done;
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
      for i = 0 to n - 1 do
        let p = ref 0 in
        for j = 0 to key_len - 1 do
          p := (!p lsl widths.(j)) lor (keys.((i * key_len) + j) - lo.(j))
        done;
        keys.(i) <- !p
      done;
      Cddpd_util.Int_sort.sort_prefix keys n;
      for i = n - 1 downto 0 do
        let p = ref keys.(i) in
        for j = key_len - 1 downto 0 do
          keys.((i * key_len) + j) <- (!p land ((1 lsl widths.(j)) - 1)) + lo.(j);
          p := !p lsr widths.(j)
        done
      done
    end
    else begin
      let rec compare_from a b j =
        if j = key_len then 0
        else
          let c = Int.compare keys.((a * key_len) + j) keys.((b * key_len) + j) in
          if c <> 0 then c else compare_from a b (j + 1)
      in
      let order = Array.init n Fun.id in
      Array.sort (fun a b -> compare_from a b 0) order;
      let sorted = Array.make (Array.length keys) 0 in
      Array.iteri (fun i k -> Array.blit keys (k * key_len) sorted (i * key_len) key_len) order;
      Array.blit sorted 0 keys 0 (Array.length keys)
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
   read in place, no tuple is decoded, and the keys land, flat, in one
   array sized by the live-tuple count, which the sort and the bulk load
   then work in. *)
let build pool schema heap index =
  let positions = key_positions schema index in
  let layout = Filter.heap_layout schema in
  let n = Array.length positions in
  let key_len = n + 2 in
  let keys = Array.make (Heap_file.n_tuples heap * key_len) 0 in
  let filled = ref 0 in
  Heap_file.scan heap ~ranges:Cddpd_storage.Ranges.none (fun buf base page slot ->
      let o = !filled in
      for i = 0 to n - 1 do
        keys.(o + i) <- Filter.read_int layout positions.(i) buf base
      done;
      keys.(o + n) <- page;
      keys.(o + n + 1) <- slot;
      filled := o + key_len);
  assert (!filled = Array.length keys);
  sort_keys ~key_len keys;
  of_sorted_keys pool index positions keys

let build_of_rows pool schema index ~rows ~rids =
  if Array.length rows <> Array.length rids then
    invalid_arg "Index.build_of_rows: rows and rids differ in length";
  let positions = key_positions schema index in
  let n = Array.length positions in
  let key_len = n + 2 in
  let keys = Array.make (Array.length rows * key_len) 0 in
  Array.iteri
    (fun r row ->
      let o = r * key_len in
      for i = 0 to n - 1 do
        keys.(o + i) <- Tuple.int_exn row.(positions.(i))
      done;
      keys.(o + n) <- rids.(r).Heap_file.page;
      keys.(o + n + 1) <- rids.(r).Heap_file.slot)
    rows;
  sort_keys ~key_len keys;
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

let n_pages t = Btree.n_pages t.tree

let release t = Btree.release t.tree
