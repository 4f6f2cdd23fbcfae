(* Node layout (see mli for the high-level contract):
     0  u8   kind: 0 = leaf, 1 = internal
     1  u16  n: number of keys
     3  i32  leaf: next-leaf page id (-1 at the end); internal: unused (-1)
     7  payload
   Leaf payload: n keys, each key_len * 8 bytes.
   Internal payload: child0 (i32) followed by n entries of key + child (i32).
   Invariant: for an internal node with keys k_1..k_n and children c_0..c_n,
   subtree c_i holds exactly the keys in [k_i, k_{i+1}) with k_0 = -inf and
   k_{n+1} = +inf. *)

module Obs = Cddpd_obs
module Leaf_tbl = Hashtbl.Make (Int)

let m_leaves_fetched = Obs.Registry.counter "btree.leaves_fetched"
let m_leaves_skipped = Obs.Registry.counter "btree.leaves_skipped"

(* [synopses] memoizes a leaf's equality synopsis ({!Synopsis}, keyed by
   key component) by page id.  Unlike a heap page's records, leaf entries
   shift, so a synopsis covers the whole leaf as it was when built: a
   range walk builds it from the page bytes it fetched anyway, and any
   write to the leaf ([insert_leaf], [delete]) drops it. *)
type t = {
  pool : Buffer_pool.t;
  key_len : int;
  mutable root : int;
  mutable height : int;
  mutable entries : int;
  mutable pages : int;
  synopses : Synopsis.t Leaf_tbl.t;
}

let header = 7
let kind_leaf = 0
let kind_internal = 1

let key_bytes t = t.key_len * 8

let leaf_capacity t = (Page.size - header) / key_bytes t

let internal_capacity t =
  (* children: 4 bytes each; one more child than keys. *)
  (Page.size - header - 4) / (key_bytes t + 4)

let node_kind page = Page.get_u8 page 0
let node_n page = Page.get_u16 page 1
let set_node_n page n = Page.set_u16 page 1 n
let next_leaf page = Page.get_i32 page 3
let set_next_leaf page v = Page.set_i32 page 3 v

let init_node page ~kind =
  Page.set_u8 page 0 kind;
  set_node_n page 0;
  set_next_leaf page (-1)

(* -- key accessors ------------------------------------------------------ *)

let leaf_key_pos t i = header + (i * key_bytes t)

let read_key t page pos =
  Array.init t.key_len (fun j -> Page.get_i64 page (pos + (j * 8)))

let write_key t page pos key =
  for j = 0 to t.key_len - 1 do
    Page.set_i64 page (pos + (j * 8)) key.(j)
  done

let leaf_key t page i = read_key t page (leaf_key_pos t i)

(* Internal node: child i at child_pos i, key i (1-based separators stored
   0-based) at int_key_pos i. *)
let child_pos t i = header + if i = 0 then 0 else 4 + ((i - 1) * (key_bytes t + 4)) + key_bytes t
let int_key_pos t i = header + 4 + (i * (key_bytes t + 4))

let child t page i = Page.get_i32 page (child_pos t i)
let set_child t page i v = Page.set_i32 page (child_pos t i) v
let int_key t page i = read_key t page (int_key_pos t i)
let set_int_key t page i key = write_key t page (int_key_pos t i) key

let compare_key t a b =
  let rec go i =
    if i = t.key_len then 0
    else
      let c = Int.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* Unchecked little-endian reads for the search and the leaf walk.  Each
   node's key run is bounds-checked once ([check_run]) before any key in
   it is read, and a searched key never outgrows its slot, so no read
   leaves the page. *)
external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let i64 buf i = Int64.to_int (if Sys.big_endian then swap64 (get64u buf i) else get64u buf i)

let check_run buf ~first ~stride n =
  if first + (n * stride) > Bytes.length buf then invalid_arg "Btree: node overruns its page"

(* The key stored at byte [pos] of [buf] compared with [key] from
   component [j] on, in place: the search and the walk never materialise
   a stored key. *)
let rec compare_stored buf pos key j =
  if j = Array.length key then 0
  else
    let v = i64 buf (pos + (j * 8)) in
    let k = Array.unsafe_get key j in
    if v < k then -1 else if v > k then 1 else compare_stored buf pos key (j + 1)

(* Binary search over the [n] keys stored at [first + i * stride]: the
   first index whose key is >= [key] ([~strict:false]) or > [key]
   ([~strict:true]); [n] if none. *)
let search buf ~first ~stride n key ~strict =
  if 8 * Array.length key > stride then invalid_arg "Btree: key longer than its slot";
  check_run buf ~first ~stride n;
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let c = compare_stored buf (first + (mid * stride)) key 0 in
    if c < 0 || (strict && c = 0) then lo := mid + 1 else hi := mid
  done;
  !lo

(* First leaf index whose key is >= [key]. *)
let leaf_lower_bound t page key =
  search (Page.to_bytes page) ~first:header ~stride:(key_bytes t) (node_n page) key
    ~strict:false

(* First separator index whose key is >= [key]: where a new separator goes. *)
let separator_lower_bound t page key =
  search (Page.to_bytes page) ~first:(int_key_pos t 0) ~stride:(key_bytes t + 4)
    (node_n page) key ~strict:false

(* Child to descend into for [key]: the number of separators <= key. *)
let descend_index t page key =
  search (Page.to_bytes page) ~first:(int_key_pos t 0) ~stride:(key_bytes t + 4)
    (node_n page) key ~strict:true

(* Whether leaf entry [i] holds exactly [key]. *)
let leaf_key_equals t page i key =
  let buf = Page.to_bytes page in
  i < node_n page
  && begin
       check_run buf ~first:header ~stride:(key_bytes t) (i + 1);
       compare_stored buf (leaf_key_pos t i) key 0 = 0
     end

(* -- construction -------------------------------------------------------- *)

let check_key_len key_len =
  if key_len < 1 || key_len > 16 then invalid_arg "Btree: key_len must be in [1, 16]"

let empty pool ~key_len =
  { pool; key_len; root = -1; height = 1; entries = 0; pages = 0; synopses = Leaf_tbl.create 16 }

let alloc_node t ~kind =
  let handle = Buffer_pool.allocate t.pool in
  init_node (Buffer_pool.page handle) ~kind;
  Buffer_pool.mark_dirty handle;
  t.pages <- t.pages + 1;
  handle

let create pool ~key_len =
  check_key_len key_len;
  let t = empty pool ~key_len in
  let handle = alloc_node t ~kind:kind_leaf in
  t.root <- Buffer_pool.page_id handle;
  Buffer_pool.unpin pool handle;
  t

let n_entries t = t.entries

let height t = t.height

let n_pages t = t.pages

let with_node t pid f =
  let handle = Buffer_pool.fetch t.pool pid in
  let result =
    try f handle (Buffer_pool.page handle)
    with exn ->
      Buffer_pool.unpin t.pool handle;
      raise exn
  in
  Buffer_pool.unpin t.pool handle;
  result

let check_key t key =
  if Array.length key <> t.key_len then
    invalid_arg "Btree: key has the wrong number of components"

(* -- search -------------------------------------------------------------- *)

let rec find_leaf t pid key =
  with_node t pid (fun _handle page ->
      if node_kind page = kind_leaf then pid
      else find_leaf t (child t page (descend_index t page key)) key)

let mem t key =
  check_key t key;
  let leaf = find_leaf t t.root key in
  with_node t leaf (fun _handle page ->
      leaf_key_equals t page (leaf_lower_bound t page key) key)

(* -- insertion ----------------------------------------------------------- *)

(* Shift leaf keys [i, n) one slot right and write [key] at [i]. *)
let leaf_insert_at t page i key =
  let n = node_n page in
  if n > i then
    Page.move page ~src:(leaf_key_pos t i) ~dst:(leaf_key_pos t (i + 1))
      ~len:((n - i) * key_bytes t);
  write_key t page (leaf_key_pos t i) key;
  set_node_n page (n + 1)

(* Insert separator [key] with right child [rc] after child position [i]. *)
let internal_insert_at t page i key rc =
  let n = node_n page in
  if n > i then
    Page.move page ~src:(int_key_pos t i) ~dst:(int_key_pos t (i + 1))
      ~len:((n - i) * (key_bytes t + 4));
  set_int_key t page i key;
  Page.set_i32 page (int_key_pos t i + key_bytes t) rc;
  set_node_n page (n + 1)

type split = { sep : int array; right : int }

(* Before a write to a leaf: its synopsis no longer describes it.  A
   split's right sibling is a fresh page, which has none. *)
let drop_synopsis t handle =
  if Leaf_tbl.length t.synopses > 0 then Leaf_tbl.remove t.synopses (Buffer_pool.page_id handle)

(* Insert into the subtree rooted at [pid]; return a split description if
   the node had to split. *)
let rec insert_rec t pid key =
  let handle = Buffer_pool.fetch t.pool pid in
  let page = Buffer_pool.page handle in
  let result =
    if node_kind page = kind_leaf then insert_leaf t handle page key
    else begin
      let ci = descend_index t page key in
      match insert_rec t (child t page ci) key with
      | None -> None
      | Some { sep; right } ->
          Buffer_pool.mark_dirty handle;
          if node_n page < internal_capacity t then begin
            let pos = separator_lower_bound t page sep in
            internal_insert_at t page pos sep right;
            None
          end
          else split_internal t handle page sep right
    end
  in
  Buffer_pool.unpin t.pool handle;
  result

and insert_leaf t handle page key =
  let i = leaf_lower_bound t page key in
  if leaf_key_equals t page i key then None
  else begin
    Buffer_pool.mark_dirty handle;
    drop_synopsis t handle;
    t.entries <- t.entries + 1;
    if node_n page < leaf_capacity t then begin
      leaf_insert_at t page i key;
      None
    end
    else begin
      (* Split: move the upper half to a fresh right sibling, then insert
         the key into whichever side it belongs. *)
      let n = node_n page in
      let mid = n / 2 in
      let right_handle = alloc_node t ~kind:kind_leaf in
      let right_page = Buffer_pool.page right_handle in
      let moved = n - mid in
      Page.set_bytes right_page ~pos:(leaf_key_pos t 0)
        (Page.get_bytes page ~pos:(leaf_key_pos t mid) ~len:(moved * key_bytes t));
      set_node_n right_page moved;
      set_node_n page mid;
      set_next_leaf right_page (next_leaf page);
      set_next_leaf page (Buffer_pool.page_id right_handle);
      let sep = leaf_key t right_page 0 in
      if compare_key t key sep < 0 then
        leaf_insert_at t page (leaf_lower_bound t page key) key
      else leaf_insert_at t right_page (leaf_lower_bound t right_page key) key;
      let right = Buffer_pool.page_id right_handle in
      Buffer_pool.unpin t.pool right_handle;
      Some { sep = leaf_key t right_page 0; right }
    end
  end

and split_internal t _handle page sep rc =
  (* The node is full: conceptually insert (sep, rc), then split in the
     middle, pushing the middle separator up.  To keep the page logic
     simple we materialise the combined entry list, split it, and rewrite
     both pages. *)
  let n = node_n page in
  let keys = Array.init n (fun i -> int_key t page i) in
  let children = Array.init (n + 1) (fun i -> child t page i) in
  let pos = separator_lower_bound t page sep in
  let all_keys = Array.make (n + 1) sep in
  let all_children = Array.make (n + 2) rc in
  Array.blit keys 0 all_keys 0 pos;
  Array.blit keys pos all_keys (pos + 1) (n - pos);
  Array.blit children 0 all_children 0 (pos + 1);
  Array.blit children (pos + 1) all_children (pos + 2) (n - pos);
  let total = n + 1 in
  let mid = total / 2 in
  let up = all_keys.(mid) in
  let right_handle = alloc_node t ~kind:kind_internal in
  let right_page = Buffer_pool.page right_handle in
  (* Left keeps keys [0, mid) and children [0, mid]. *)
  set_node_n page 0;
  set_child t page 0 all_children.(0);
  for i = 0 to mid - 1 do
    internal_insert_at t page i all_keys.(i) all_children.(i + 1)
  done;
  (* Right gets keys (mid, total) and children [mid+1, total+1). *)
  set_child t right_page 0 all_children.(mid + 1);
  for i = mid + 1 to total - 1 do
    internal_insert_at t right_page (i - mid - 1) all_keys.(i) all_children.(i + 1)
  done;
  let right = Buffer_pool.page_id right_handle in
  Buffer_pool.unpin t.pool right_handle;
  Some { sep = up; right }

let insert t key =
  check_key t key;
  match insert_rec t t.root key with
  | None -> ()
  | Some { sep; right } ->
      let handle = alloc_node t ~kind:kind_internal in
      let page = Buffer_pool.page handle in
      set_child t page 0 t.root;
      internal_insert_at t page 0 sep right;
      t.root <- Buffer_pool.page_id handle;
      t.height <- t.height + 1;
      Buffer_pool.unpin t.pool handle

(* -- deletion (no rebalancing) ------------------------------------------- *)

let delete t key =
  check_key t key;
  let leaf = find_leaf t t.root key in
  with_node t leaf (fun handle page ->
      let i = leaf_lower_bound t page key in
      if leaf_key_equals t page i key then begin
        let n = node_n page in
        if i < n - 1 then
          Page.move page ~src:(leaf_key_pos t (i + 1)) ~dst:(leaf_key_pos t i)
            ~len:((n - 1 - i) * key_bytes t);
        set_node_n page (n - 1);
        Buffer_pool.mark_dirty handle;
        drop_synopsis t handle;
        t.entries <- t.entries - 1;
        true
      end
      else false)

(* -- range iteration ------------------------------------------------------ *)

(* Whether the flattened (offset, lo, hi) triples [r] all hold for the
   entry at [pos].  The same inlined loop as [Heap_file]'s, kept local for
   the same reason: library modules are compiled without cross-module
   inlining in the default build, and a call per entry costs about as
   much as the test itself. *)
let[@inline always] ranges_hold r buf pos =
  let i = ref 0 and hold = ref true in
  while !hold && !i < Array.length r do
    let v = i64 buf (pos + Array.unsafe_get r !i) in
    hold := v >= Array.unsafe_get r (!i + 1) && v <= Array.unsafe_get r (!i + 2);
    i := !i + 3
  done;
  !hold

(* -- leaf synopses ----------------------------------------------------------- *)

(* The synopsis of the leaf [pid] holding [n] entries in [buf], built and
   memoized on first use.  A hit allocates nothing ([find], not
   [find_opt]). *)
let leaf_synopsis t pid buf n =
  match Leaf_tbl.find t.synopses pid with
  | syn -> syn
  | exception Not_found ->
      let syn = Synopsis.create () and kb = key_bytes t in
      check_run buf ~first:header ~stride:kb n;
      for i = 0 to n - 1 do
        for j = 0 to t.key_len - 1 do
          Synopsis.add syn ~key:j (i64 buf (header + (i * kb) + (j * 8)))
        done
      done;
      Leaf_tbl.replace t.synopses pid syn;
      syn

(* The number of leading key components the walk's bounds fix
   ([lo = hi]): every entry the walk visits holds one value there, so an
   equality on one of them (a covering seek's own prefix) can never
   exclude a leaf with entries in range. *)
let rec fixed_prefix lo hi j =
  if j < Array.length lo && Int.equal lo.(j) hi.(j) then fixed_prefix lo hi (j + 1) else j

(* One leaf of the range walk: the entries from [start] up to the first
   key above [hi] (found by binary search, so no entry is compared with
   [hi] in the loop), the ranges tested on each and the matches passed to
   [f].  With equalities [eq] to decide, a leaf whose synopsis excludes
   them skips its entry loop; the search for [hi] still runs, so where
   the walk stops is unchanged.  The next leaf's id, or -1 once a key
   above [hi] was seen. *)
let walk_leaf t pid page start hi r eq f =
  let buf = Page.to_bytes page in
  let kb = key_bytes t in
  let n = node_n page in
  let stop = search buf ~first:header ~stride:kb n hi ~strict:true in
  if
    Array.length eq > 0
    && start < stop
    && Synopsis.excludes (leaf_synopsis t pid buf n) eq ~below:t.key_len
  then Obs.Counter.incr m_leaves_skipped
  else
    for i = start to stop - 1 do
      let pos = header + (i * kb) in
      if ranges_hold r buf pos then f buf pos
    done;
  if stop < n then -1 else next_leaf page

let iter_range_slices t ~lo ~hi ~ranges f =
  check_key t lo;
  check_key t hi;
  if Ranges.reach ranges > key_bytes t then invalid_arg "Btree: ranges reach past the key";
  let r = Ranges.triples ranges in
  (* The equalities a leaf's synopsis decides: on a key component (an
     aligned offset; every entry holds each one) the bounds leave open.
     A walk with none consults no synopsis. *)
  let eq =
    if Ranges.has_equality ranges then
      let fixed = fixed_prefix lo hi 0 in
      Synopsis.equalities r ~key_of:(fun off ->
          if off land 7 = 0 && off lsr 3 >= fixed then Some (off lsr 3) else None)
    else [||]
  in
  if compare_key t lo hi <= 0 then begin
    let pid = ref (find_leaf t t.root lo) in
    while !pid <> -1 do
      let handle = Buffer_pool.fetch t.pool !pid in
      Obs.Counter.incr m_leaves_fetched;
      let page = Buffer_pool.page handle in
      match walk_leaf t !pid page (leaf_lower_bound t page lo) hi r eq f with
      | next ->
          Buffer_pool.unpin t.pool handle;
          pid := next
      | exception exn ->
          Buffer_pool.unpin t.pool handle;
          raise exn
    done
  end

let iter_range t ~lo ~hi f =
  iter_range_slices t ~lo ~hi ~ranges:Ranges.none (fun buf pos ->
      f (Array.init t.key_len (fun j -> Int64.to_int (Bytes.get_int64_le buf (pos + (j * 8))))))

let iter_prefix t ~prefix f =
  let plen = Array.length prefix in
  if plen > t.key_len then invalid_arg "Btree.iter_prefix: prefix too long";
  let lo = Array.make t.key_len min_int in
  let hi = Array.make t.key_len max_int in
  Array.blit prefix 0 lo 0 plen;
  Array.blit prefix 0 hi 0 plen;
  iter_range t ~lo ~hi f

let iter_all t f =
  let lo = Array.make t.key_len min_int in
  let hi = Array.make t.key_len max_int in
  iter_range t ~lo ~hi f

(* -- bulk loading --------------------------------------------------------- *)

let bulk_load pool ~key_len keys =
  check_key_len key_len;
  let t = empty pool ~key_len in
  let n = Array.length keys in
  Array.iter
    (fun key ->
      if Array.length key <> key_len then
        invalid_arg "Btree.bulk_load: key has the wrong number of components")
    keys;
  for i = 1 to n - 1 do
    if compare_key t keys.(i - 1) keys.(i) >= 0 then
      invalid_arg "Btree.bulk_load: keys must be sorted and unique"
  done;
  if n = 0 then begin
    let handle = alloc_node t ~kind:kind_leaf in
    t.root <- Buffer_pool.page_id handle;
    Buffer_pool.unpin pool handle;
    t
  end
  else begin
    let fill cap = max 1 (cap * 9 / 10) in
    (* Build the leaf level; collect (first_key, pid) per leaf. *)
    let per_leaf = fill (leaf_capacity t) in
    let leaves = ref [] in
    let prev_handle = ref None in
    let i = ref 0 in
    while !i < n do
      let count = min per_leaf (n - !i) in
      let handle = alloc_node t ~kind:kind_leaf in
      let page = Buffer_pool.page handle in
      for j = 0 to count - 1 do
        write_key t page (leaf_key_pos t j) keys.(!i + j)
      done;
      set_node_n page count;
      (match !prev_handle with
      | Some prev ->
          set_next_leaf (Buffer_pool.page prev) (Buffer_pool.page_id handle);
          Buffer_pool.unpin pool prev
      | None -> ());
      prev_handle := Some handle;
      leaves := (keys.(!i), Buffer_pool.page_id handle) :: !leaves;
      i := !i + count
    done;
    (match !prev_handle with Some prev -> Buffer_pool.unpin pool prev | None -> ());
    t.entries <- n;
    (* Build internal levels bottom-up until a single node remains. *)
    let rec build level_nodes height =
      match level_nodes with
      | [] -> assert false
      | [ (_, pid) ] ->
          t.root <- pid;
          t.height <- height
      | _ :: _ :: _ ->
          let per_node = fill (internal_capacity t) in
          let groups = ref [] in
          let rec take acc k rest =
            match (rest, k) with
            | _, 0 | [], _ -> (List.rev acc, rest)
            | x :: rest, k -> take (x :: acc) (k - 1) rest
          in
          let rec group rest =
            match rest with
            | [] -> ()
            | _ :: _ ->
                (* per_node keys means per_node + 1 children *)
                let children, rest = take [] (per_node + 1) rest in
                (* Avoid leaving a trailing group with a single child. *)
                let children, rest =
                  match rest with
                  | [ _ ] ->
                      let moved, keep =
                        match List.rev children with
                        | last :: keep_rev -> (last, List.rev keep_rev)
                        | [] -> assert false
                      in
                      (keep, [ moved ] @ rest)
                  | _ -> (children, rest)
                in
                let handle = alloc_node t ~kind:kind_internal in
                let page = Buffer_pool.page handle in
                (match children with
                | [] -> assert false
                | (first_key, first_pid) :: others ->
                    set_child t page 0 first_pid;
                    List.iteri
                      (fun idx (sep, pid) -> internal_insert_at t page idx sep pid)
                      others;
                    groups := (first_key, Buffer_pool.page_id handle) :: !groups);
                Buffer_pool.unpin pool handle;
                group rest
          in
          group level_nodes;
          build (List.rev !groups) (height + 1)
    in
    build (List.rev !leaves) 1;
    t
  end
