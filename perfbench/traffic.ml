(* The benchmark's workloads: for each, the table, its initial data and
   design, the serve window, and a raw-SQL trace — all drawn from the
   workload seed.  The program under test only ever sees the texts.
   Why each workload exists, and how its sizes compare with the
   program's caches, is in README.md next to this file. *)

module Schema = Cddpd_catalog.Schema
module Index_def = Cddpd_catalog.Index_def
module Tuple = Cddpd_storage.Tuple

type t = {
  name : string;
  schema : Schema.table;
  pool_capacity : int;  (** buffer-pool frames *)
  rows : Tuple.t array;
  indexes : Index_def.t list;  (** built before the load *)
  window : int;  (** statements per serve window *)
  texts : string array;  (** the trace, materialised before any clock *)
}

(* Statements past the last full window: they are served but close no
   window, so every replay also exercises the report's residual
   accounting. *)
let residual = 7

(* -- steady and drift: the wide 7-predicate template ---------------------- *)

let wide_rows = 20_000
let wide_value_range = 50_000
let wide_pool_frames = 4_096
let wide_pool_texts = 48
let wide_churn_every = 20

let wide_schema =
  Schema.table "t"
    (List.map (fun c -> (c, Schema.Int_type)) [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ])

(* Seven predicates, one of them a range, so the per-statement front end
   (lex, parse, validate, key every predicate, choose a plan) is most of a
   statement's cost and execution is a cheap indexed seek. *)
let wide_text lead value lo =
  Printf.sprintf
    "SELECT a, b FROM t WHERE %s = %d AND c BETWEEN %d AND %d AND d = %d AND e = %d \
     AND f = %d AND g = %d AND h = %d"
    lead value lo (lo + 40)
    (1 + (value mod 97))
    (1 + (lo mod 89))
    (1 + (value mod 83))
    (1 + (lo mod 79))
    (1 + (value mod 73))

(* A point query's leading value is drawn from the values its column
   holds exactly once, so every statement's seek matches one row whatever
   the seed: the seed moves literals, and with them the histogram buckets
   the cost keys see, but not the work a statement does. *)
let singletons rows column =
  let counts = Hashtbl.create wide_rows in
  Array.iter
    (fun row ->
      match row.(column) with
      | Tuple.Int v -> Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
      | Tuple.Text _ -> ())
    rows;
  let once = Hashtbl.fold (fun v n acc -> if n = 1 then v :: acc else acc) counts [] in
  Array.of_list (List.sort compare once)

let random_text rng singles lead =
  let values = singles.(Char.code lead.[0] - Char.code 'a') in
  wide_text lead
    values.(Random.State.int rng (Array.length values))
    (1 + Random.State.int rng wide_value_range)

(* [leads.(w)] is window [w]'s leading predicate column.  Each column has
   a fixed pool of prepared-statement-like texts that windows cycle
   through; every [wide_churn_every]-th statement is fresh, so the
   template cache must rebind literals and not only replay texts. *)
let wide_texts rng singles ~window leads =
  let pools = Hashtbl.create 4 in
  let pool lead =
    match Hashtbl.find_opt pools lead with
    | Some p -> p
    | None ->
        let p = Array.init wide_pool_texts (fun _ -> random_text rng singles lead) in
        Hashtbl.add pools lead p;
        p
  in
  let text lead i =
    if i mod wide_churn_every = 0 then random_text rng singles lead
    else (pool lead).(i mod wide_pool_texts)
  in
  let windows = Array.length leads in
  Array.init ((windows * window) + residual) (fun j ->
      let lead = leads.(min (j / window) (windows - 1)) in
      text lead (j mod window))

let wide ~name ~seed ~window leads =
  let rng = Random.State.make [| seed; Hashtbl.hash name |] in
  let rows =
    Cddpd_workload.Data_gen.uniform_rows ~columns:8 ~rows:wide_rows
      ~value_range:wide_value_range ~seed
  in
  let singles = Array.init 4 (singletons rows) in
  {
    name;
    schema = wide_schema;
    pool_capacity = wide_pool_frames;
    rows;
    indexes =
      [ Index_def.make ~table:"t" ~columns:[ "a" ]; Index_def.make ~table:"t" ~columns:[ "b" ] ];
    window;
    texts = wide_texts rng singles ~window leads;
  }

let steady_windows = 300

let steady seed =
  wide ~name:"steady" ~seed ~window:1_000 (Array.make steady_windows "a")

let drift_windows = 100
let drift_rotation = "abcd"

let drift seed =
  wide ~name:"drift" ~seed ~window:250
    (Array.init drift_windows (fun w ->
         String.make 1 drift_rotation.[w mod String.length drift_rotation]))

(* -- writes: the paper's W1 with a fixed UPDATE rate ----------------------- *)

(* The paper's 4-column table at its 5 rows per value, larger than the
   buffer pool. *)
let writes_value_range = 1000
let writes_rows = 5 * writes_value_range
let writes_pool_frames = 24
let writes_scale = 0.7
let writes_update_every = 100

let paper_schema =
  Schema.table "t"
    (List.map (fun c -> (c, Schema.Int_type)) [ "a"; "b"; "c"; "d" ])

(* Statement [i] with [i mod writes_update_every = writes_update_every / 2]
   becomes an UPDATE of the point query's own column, so every window of
   a multiple of [writes_update_every] statements carries the same write
   count at the same offset. *)
let writes seed =
  let queries =
    Cddpd_workload.Spec.generate_flat
      (Cddpd_workload.Workloads.w1 ~scale:writes_scale ())
      ~table:"t" ~value_range:writes_value_range ~seed
  in
  let statements =
    Array.mapi
      (fun i q ->
        if i mod writes_update_every = writes_update_every / 2 then
          (Cddpd_workload.Dml_gen.blend ~update_fraction:1.0
             ~value_range:writes_value_range ~seed:(seed + i) [| q |]).(0)
        else q)
      queries
  in
  let statements = Array.append statements (Array.sub statements 0 residual) in
  {
    name = "writes";
    schema = paper_schema;
    pool_capacity = writes_pool_frames;
    rows =
      Cddpd_workload.Data_gen.uniform_rows ~columns:4 ~rows:writes_rows
        ~value_range:writes_value_range ~seed;
    indexes = [];
    window = 100;
    texts = Array.map Cddpd_sql.Printer.to_string statements;
  }

let workloads = [ ("steady", steady); ("drift", drift); ("writes", writes) ]
let names = List.map fst workloads
let make name ~seed = Option.map (fun f -> f seed) (List.assoc_opt name workloads)
