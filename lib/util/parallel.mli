(** Chunked data-parallel loops over OCaml 5 domains.

    A tiny, dependency-free fork/join helper: the index range [0, n) is
    split into one contiguous chunk per domain, chunk 0 runs on the
    calling domain and the rest on freshly spawned domains, and every
    domain is joined before the call returns.  Spawning is the only
    synchronisation — bodies must confine themselves to disjoint state
    (e.g. distinct array slots) or domain-local accumulators returned for
    a sequential merge.

    Its one user is the experiment cell runner ([Runner.run] in
    lib/experiments); everything else runs on one domain
    (docs/PERFORMANCE.md, "One domain"). *)

val ncpu : unit -> int
(** [Domain.recommended_domain_count ()]: hardware parallelism available
    to this process. *)

val map_chunks : jobs:int -> n:int -> (lo:int -> hi:int -> 'a) -> 'a list
(** [map_chunks ~jobs ~n f] partitions [0, n) into [min jobs n]
    contiguous chunks (at least one), runs [f ~lo ~hi] (the half-open
    range [lo, hi)) once per chunk — in parallel when there is more than
    one — and returns the chunk results in index order.  [n <= 0]
    returns [[]].  An exception raised by any chunk is re-raised after
    all domains are joined. *)
