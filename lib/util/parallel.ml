let ncpu () = Domain.recommended_domain_count ()

(* Chunk c of d covers [bound c, bound (c+1)): sizes differ by at most one,
   earlier chunks get the remainder. *)
let bound ~n ~d c =
  let base = n / d and extra = n mod d in
  (c * base) + min c extra

let map_chunks ~jobs ~n f =
  if n <= 0 then []
  else
    let d = max 1 (min jobs n) in
    if d = 1 then [ f ~lo:0 ~hi:n ]
    else begin
      let lo c = bound ~n ~d c and hi c = bound ~n ~d (c + 1) in
      let spawned =
        Array.init (d - 1) (fun i ->
            let c = i + 1 in
            Domain.spawn (fun () -> f ~lo:(lo c) ~hi:(hi c)))
      in
      (* Chunk 0 runs here, so d jobs occupy d domains in total.  Join
         everything before re-raising, or a stray domain would outlive the
         exception. *)
      let first = try Ok (f ~lo:(lo 0) ~hi:(hi 0)) with e -> Error e in
      let rest = Array.map (fun dom -> try Ok (Domain.join dom) with e -> Error e) spawned in
      Array.to_list (Array.append [| first |] rest)
      |> List.map (function Ok v -> v | Error e -> raise e)
    end
