module Buffer_pool = Cddpd_storage.Buffer_pool
module Heap_file = Cddpd_storage.Heap_file
module Btree = Cddpd_storage.Btree
module Tuple = Cddpd_storage.Tuple
module Schema = Cddpd_catalog.Schema
module View_def = Cddpd_catalog.View_def

type t = {
  def : View_def.t;
  heap : Heap_file.t;
  tree : Btree.t; (* keys: [group; rid.page; rid.slot] *)
  group_pos : int;
  sum_columns : string list;
  sum_positions : int array;
}

type row = { group_value : int; count : int; sums : int array }

let def t = t.def

let sum_columns t = t.sum_columns

(* View rows are stored as tuples [g; count; sums...]. *)
let encode_row row =
  Array.append
    [| Tuple.Int row.group_value; Tuple.Int row.count |]
    (Array.map (fun s -> Tuple.Int s) row.sums)

let decode_row tuple =
  {
    group_value = Tuple.int_exn tuple.(0);
    count = Tuple.int_exn tuple.(1);
    sums = Array.init (Array.length tuple - 2) (fun i -> Tuple.int_exn tuple.(i + 2));
  }

let tree_key group (rid : Heap_file.rid) = [| group; rid.Heap_file.page; rid.Heap_file.slot |]

let int_columns schema =
  List.filter_map
    (fun (c : Schema.column) ->
      match c.Schema.ty with
      | Schema.Int_type -> Some c.Schema.name
      | Schema.Text_type -> None)
    schema.Schema.columns

let store_row t row =
  let rid = Heap_file.insert t.heap (encode_row row) in
  Btree.insert t.tree (tree_key row.group_value rid)

(* Find the stored rid for a group, if any. *)
let find_rid t group =
  let found = ref None in
  Btree.iter_prefix t.tree ~prefix:[| group |] (fun key ->
      found := Some { Heap_file.page = key.(1); slot = key.(2) });
  !found

let lookup t group =
  match find_rid t group with
  | None -> None
  | Some rid -> (
      match Heap_file.fetch t.heap rid with
      | Some tuple -> Some (decode_row tuple)
      | None -> failwith "Mat_view: dangling view row")

let remove_row t group rid =
  ignore (Heap_file.delete t.heap rid);
  ignore (Btree.delete t.tree (tree_key group rid))

let scan t f =
  (* Scan the view heap directly: one page access per view page, not one
     per group (the tree is only for point lookups). *)
  Heap_file.iter t.heap (fun _rid tuple -> f (decode_row tuple))

let apply_base_change t tuple ~sign =
  let group_value = Tuple.int_exn tuple.(t.group_pos) in
  let delta = Array.map (fun pos -> sign * Tuple.int_exn tuple.(pos)) t.sum_positions in
  match find_rid t group_value with
  | Some rid ->
      let old_row =
        match Heap_file.fetch t.heap rid with
        | Some old_tuple -> decode_row old_tuple
        | None -> failwith "Mat_view: dangling view row"
      in
      remove_row t group_value rid;
      let count = old_row.count + sign in
      if count < 0 then failwith "Mat_view: negative group count";
      if count > 0 then
        store_row t
          {
            group_value;
            count;
            sums = Array.mapi (fun i s -> s + delta.(i)) old_row.sums;
          }
  | None ->
      if sign < 0 then failwith "Mat_view: delete for an absent group";
      store_row t { group_value; count = 1; sums = delta }

let apply_insert t tuple = apply_base_change t tuple ~sign:1

let apply_delete t tuple = apply_base_change t tuple ~sign:(-1)

let build pool schema heap view =
  let group_by = View_def.group_by view in
  (match Schema.column_type schema group_by with
  | Some Schema.Int_type -> ()
  | Some Schema.Text_type ->
      invalid_arg
        (Printf.sprintf "Mat_view.build: group column %s is text" group_by)
  | None ->
      invalid_arg
        (Printf.sprintf "Mat_view.build: column %s not in table %s" group_by
           schema.Schema.name));
  let sum_columns = int_columns schema in
  let sum_positions =
    Array.of_list (List.map (Schema.column_index_exn schema) sum_columns)
  in
  let group_pos = Schema.column_index_exn schema group_by in
  (* Aggregate the base table in memory, then bulk-materialise. *)
  let groups = Hashtbl.create 256 in
  Heap_file.iter heap (fun _rid tuple ->
      let g = Tuple.int_exn tuple.(group_pos) in
      let count, sums =
        match Hashtbl.find_opt groups g with
        | Some entry -> entry
        | None ->
            let entry = (ref 0, Array.make (Array.length sum_positions) 0) in
            Hashtbl.replace groups g entry;
            entry
      in
      incr count;
      Array.iteri
        (fun i pos -> sums.(i) <- sums.(i) + Tuple.int_exn tuple.(pos))
        sum_positions);
  let t =
    {
      def = view;
      heap = Heap_file.create pool;
      tree = Btree.create pool ~key_len:3;
      group_pos;
      sum_columns;
      sum_positions;
    }
  in
  (* Store in ascending group order so the heap is clustered by group. *)
  let sorted =
    Hashtbl.to_seq groups
    |> Seq.map (fun (g, (count, sums)) -> (g, !count, sums))
    |> List.of_seq
    |> List.sort (fun (g1, _, _) (g2, _, _) -> Int.compare g1 g2)
  in
  List.iter
    (fun (group_value, count, sums) -> store_row t { group_value; count; sums })
    sorted;
  t

let n_pages t = Heap_file.n_pages t.heap + Btree.n_pages t.tree

let release t =
  Heap_file.release t.heap;
  Btree.release t.tree
