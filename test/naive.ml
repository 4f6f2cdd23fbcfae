(* The naive oracle for Problem.build, shared by every test that pins a
   build path to it.  The matrices are defined as

     exec.(s).(c)  = left fold of Cost_model.statement_cost over step s
                     under configuration c's design
     trans.(i).(j) = Cost_model.transition_cost from design i to design j

   with no clustering, column sharing, memo, session state or domain
   split between them and the cost model.  Every optimisation of the
   build must leave its matrices equal to these, bit for bit. *)

module Ast = Cddpd_sql.Ast
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
