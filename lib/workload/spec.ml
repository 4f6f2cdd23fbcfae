module Rng = Cddpd_util.Rng

type segment = { mix : Mix.t; n_queries : int }

type t = { segments : segment list }

let make segments =
  (match segments with
  | [] -> invalid_arg "Spec.make: no segments"
  | _ :: _ -> ());
  List.iter
    (fun s -> if s.n_queries <= 0 then invalid_arg "Spec.make: non-positive segment size")
    segments;
  { segments }

let of_letters ?(queries_per_segment = 500) letters =
  if String.length letters = 0 then invalid_arg "Spec.of_letters: empty string";
  make
    (List.init (String.length letters) (fun i ->
         { mix = Mix.of_letter letters.[i]; n_queries = queries_per_segment }))

let n_segments t = List.length t.segments

let total_queries t = List.fold_left (fun acc s -> acc + s.n_queries) 0 t.segments

let mix_letters t = String.concat "" (List.map (fun s -> Mix.name s.mix) t.segments)

let generate t ~table ~value_range ~seed =
  let rng = Rng.create seed in
  let gen_segment segment =
    (* Each segment gets a split stream so inserting segments earlier in
       the spec does not shift later segments' queries. *)
    let segment_rng = Rng.split rng in
    (* Explicit loop: queries must be drawn in order for determinism
       (Array.init's evaluation order is unspecified). *)
    let first = Mix.sample_query segment.mix ~table ~value_range segment_rng in
    let queries = Array.make segment.n_queries first in
    for i = 1 to segment.n_queries - 1 do
      queries.(i) <- Mix.sample_query segment.mix ~table ~value_range segment_rng
    done;
    queries
  in
  Array.of_list (List.map gen_segment t.segments)

let generate_flat t ~table ~value_range ~seed =
  Array.concat (Array.to_list (generate t ~table ~value_range ~seed))

let pp ppf t =
  Format.fprintf ppf "@[<v>workload: %d segments, %d queries@," (n_segments t)
    (total_queries t);
  List.iter
    (fun s -> Format.fprintf ppf "  %d x %a@," s.n_queries Mix.pp s.mix)
    t.segments;
  Format.fprintf ppf "@]"
