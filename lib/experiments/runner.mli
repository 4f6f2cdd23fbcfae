(** The experiment cell scheduler: deterministic fork/join over independent
    experiment cells.

    A {e cell} is one independent unit of an experiment sweep — one
    (workload × advisor × k) combination, one replay, one solver timing —
    expressed as a labelled closure.  {!run} executes the cells on up to
    [cell_jobs] domains (via {!Cddpd_util.Parallel.map_chunks}) and
    returns their results {e in declaration order}, so a parallel sweep
    reports exactly what the sequential one does.

    {2 Determinism contract}

    - Results join in declaration order regardless of the domain count.
    - Each cell receives its own {!Cddpd_util.Rng.t}, split from a master
      seeded with [run]'s [seed] in declaration order — cell [i]'s stream
      depends only on [(seed, i)], never on how cells were chunked.
    - Cell bodies must not share mutable state: a cell that touches a
      database builds its own [Disk]/[Buffer_pool]/[Database] (lint R3
      holds by construction — there is nothing global to race on); cells
      may read shared immutable data (statement arrays, a pre-forced
      [Problem.t]) freely.

    {2 Domain count}

    The domain count is [min cells cell_jobs], and [cell_jobs] defaults
    to {!Cddpd_util.Parallel.ncpu}: the width comes from the work and the
    host, not from a setting.  With instrumentation on
    ({!Cddpd_obs.Registry.enabled}) it defaults to 1 instead, because
    worker domains record no metrics.  An explicit [cell_jobs] forces it
    (tests, the bench's experiments arms, and Figure 4, whose timing cells
    run on one domain).  Everything inside a cell —
    problem builds, solves, replays — runs on that cell's one domain, so
    nothing nests.  [run] must be called from the main domain.  This is
    the only multi-domain site of the system: measured at 1.72× on
    [figure3] with two cores (docs/PERFORMANCE.md, "One domain").

    {2 Observability}

    Each [run] adds the cell count to [experiments.cells] and the resolved
    domain count to [experiments.cell_jobs_used], and wraps each cell in an
    [experiments.cell] span.  Recording is main-domain-only (see
    {!Cddpd_obs.Switch.active}), so with an explicit [cell_jobs > 1] the
    process-wide metrics reflect main-domain cells only. *)

type ctx = {
  label : string;  (** the cell's label, for diagnostics *)
  rng : Cddpd_util.Rng.t;  (** the cell's private deterministic stream *)
}

type 'a cell

val cell : string -> (ctx -> 'a) -> 'a cell
(** [cell label body] declares a cell. *)

val run : ?cell_jobs:int -> ?seed:int -> 'a cell list -> 'a list
(** Execute the cells on up to [cell_jobs] domains (default
    {!Cddpd_util.Parallel.ncpu}, or 1 when instrumentation is on) and
    return their results in declaration order.  [seed] (default 0) seeds
    the master stream the per-cell streams are split from.  If any cell raises, every
    domain is joined first and the exception is re-raised. *)
