module Parallel = Cddpd_util.Parallel
module Rng = Cddpd_util.Rng
module Obs = Cddpd_obs

let m_cells = Obs.Registry.counter "experiments.cells"
let m_cell_jobs = Obs.Registry.counter "experiments.cell_jobs_used"

type ctx = { label : string; rng : Rng.t }

type 'a cell = { label : string; body : ctx -> 'a }

let cell label body = { label; body }

let run ?cell_jobs ?(seed = 0) cells =
  let cells = Array.of_list cells in
  let n = Array.length cells in
  if n = 0 then []
  else begin
    (* Worker domains record no metrics, so an instrumented run defaults
       to one domain and its counters cover every cell. *)
    let requested =
      match cell_jobs with
      | Some jobs -> max 1 jobs
      | None -> if Obs.Registry.enabled () then 1 else Parallel.ncpu ()
    in
    let jobs = min requested n in
    Obs.Counter.add m_cells n;
    Obs.Counter.add m_cell_jobs jobs;
    (* Split one stream per cell up front, in declaration order, so cell
       i's stream depends only on [seed] and i — never on the domain
       count, chunking or join order. *)
    let master = Rng.create seed in
    let rngs = Array.init n (fun _ -> Rng.split master) in
    let run_cell i =
      let c = cells.(i) in
      Obs.Span.with_span "experiments.cell" (fun () ->
          c.body { label = c.label; rng = rngs.(i) })
    in
    let collect ~lo ~hi = List.init (hi - lo) (fun off -> run_cell (lo + off)) in
    List.concat (Parallel.map_chunks ~jobs ~n collect)
  end
