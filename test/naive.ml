(* Naive oracles shared by the tests that pin an optimised path to them.

   Problem.build: the matrices are defined as

     exec.(s).(c)  = left fold of Cost_model.statement_cost over step s
                     under configuration c's design
     trans.(i).(j) = Cost_model.transition_cost from design i to design j

   with no clustering, column sharing, memo, session state or domain
   split between them and the cost model.  Every optimisation of the
   build must leave its matrices equal to these, bit for bit.

   Statistics: a histogram is the sorted-array bucketing loop over a
   copy of the column, and a table's statistics are that loop over every
   integer column of a full heap scan.  The maintained value counts must
   give snapshots with the same fingerprint. *)

module Ast = Cddpd_sql.Ast
module Schema = Cddpd_catalog.Schema
module Tuple = Cddpd_storage.Tuple
module Histogram = Cddpd_engine.Histogram
module Table_stats = Cddpd_engine.Table_stats
module Database = Cddpd_engine.Database
module Cost_model = Cddpd_engine.Cost_model
module Config_space = Cddpd_core.Config_space
module Problem = Cddpd_core.Problem

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let matrix_same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun r1 r2 -> Array.length r1 = Array.length r2 && Array.for_all2 same_bits r1 r2)
       a b

let exec params ~stats_of design step =
  Array.fold_left
    (fun acc statement ->
      acc +. Cost_model.statement_cost params (stats_of (Ast.table_of statement)) design statement)
    0.0 step

(* The oracle instance over the steps, space and initial configuration of
   [built]: solving it is the reference for solving [built]. *)
let problem params ~stats_of (built : Problem.t) =
  let designs = Config_space.designs built.Problem.space in
  Problem.of_matrices ~steps:built.Problem.steps ~space:built.Problem.space
    ~initial:built.Problem.initial
    ~exec:
      (Array.map
         (fun step -> Array.map (fun design -> exec params ~stats_of design step) designs)
         built.Problem.steps)
    ~trans:
      (Array.map
         (fun from_design ->
           Array.map
             (fun to_design -> Cost_model.transition_cost params ~stats_of ~from_design ~to_design)
             designs)
         designs)
    ~count_initial_change:built.Problem.count_initial_change ()

(* Whether both matrices of [built] equal the oracle's, bit for bit. *)
let matches params ~stats_of (built : Problem.t) =
  let reference = problem params ~stats_of built in
  matrix_same_bits built.Problem.exec reference.Problem.exec
  && matrix_same_bits built.Problem.trans reference.Problem.trans

(* -- statistics ------------------------------------------------------------ *)

let histogram ?(buckets = 64) values =
  if buckets <= 0 then invalid_arg "Naive.histogram: buckets <= 0";
  let sorted = Array.copy values in
  Array.sort Int.compare sorted;
  let n = Array.length sorted in
  let out = ref [] in
  let per_bucket = max 1 ((n + buckets - 1) / buckets) in
  let i = ref 0 in
  while !i < n do
    let start = !i in
    let stop = min n (start + per_bucket) in
    (* Extend the bucket so equal values never straddle a boundary. *)
    let stop = ref stop in
    while !stop < n && sorted.(!stop) = sorted.(!stop - 1) do
      incr stop
    done;
    let stop = !stop in
    let distinct = ref 1 in
    for j = start + 1 to stop - 1 do
      if sorted.(j) <> sorted.(j - 1) then incr distinct
    done;
    out :=
      { Histogram.lo = sorted.(start); hi = sorted.(stop - 1); count = stop - start; distinct = !distinct }
      :: !out;
    i := stop
  done;
  Histogram.of_buckets (Array.of_list (List.rev !out))

let fingerprint_bytes h =
  let buf = Buffer.create 256 in
  Histogram.add_fingerprint_bytes buf h;
  Buffer.contents buf

(* A full heap scan, the naive bucketing per integer column. *)
let table_stats db table =
  let schema = Option.get (Database.schema db table) in
  let int_columns =
    List.filter_map
      (fun (c : Schema.column) ->
        match c.Schema.ty with
        | Schema.Int_type -> Some (c.Schema.name, Schema.column_index_exn schema c.Schema.name)
        | Schema.Text_type -> None)
      schema.Schema.columns
  in
  let rows = ref [] in
  Database.scan db table (fun tuple -> rows := tuple :: !rows);
  let rows = Array.of_list !rows in
  let histograms =
    List.map
      (fun (name, pos) -> (name, histogram (Array.map (fun row -> Tuple.int_exn row.(pos)) rows)))
      int_columns
  in
  Table_stats.make ~row_count:(Array.length rows) ~page_count:(Database.page_count db table)
    ~histograms
