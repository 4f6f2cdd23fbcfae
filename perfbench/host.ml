(* A fixed reference workload that tracks the host's speed.

   On a shared host the same replay runs up to 1.6 times faster or slower
   from one stretch of time to the next, as other tenants load the cores
   and the memory system.  The benchmark times this reference before
   every set-up and after every replay, and reports each replay's times
   at the speed at which one round takes [nominal_s] (see [at_nominal] in
   serve_bench.ml).  It does the kinds of work the serve loop's statement
   path does (hashing strings into a table, formatting and splitting
   statement text, short-lived allocation) and none of the program's
   code.  It runs only between replays, after a full major collection:
   inside a replay its allocation would move the program's minor
   collections. *)

let hash n =
  let table = Hashtbl.create 64 in
  for i = 1 to n do
    let key = string_of_int (i * 7919 mod 2_000) in
    Hashtbl.replace table key (i :: Option.value ~default:[] (Hashtbl.find_opt table key))
  done;
  Hashtbl.length table

let text n =
  let acc = ref 0 in
  for i = 1 to n do
    Printf.sprintf "SELECT a FROM t WHERE a = %d AND c BETWEEN %d AND %d" (i * 31) i (i + 40)
    |> String.split_on_char ' '
    |> List.iter (fun w ->
           acc := !acc + match int_of_string_opt w with Some v -> v | None -> String.length w)
  done;
  !acc

(* One round takes about 0.5 ms. *)
let round () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (hash 330 + text 70));
  Unix.gettimeofday () -. t0

(* [n] rounds back to back, in seconds each. *)
let rounds n = Array.init n (fun _ -> round ())

(* The median round on the 2-vCPU development host (Xeon, KVM guest) in
   its usual state. *)
let nominal_s = 0.35e-3
