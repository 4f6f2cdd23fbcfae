(** Space-bound sweep (an extension beyond the paper's figures).

    Definition 1 carries a storage budget: every configuration must satisfy
    SIZE(C) <= b.  The paper's experiments fix a 7-configuration space and
    never vary b; this experiment allows up to two structures per
    configuration and sweeps b from "nothing fits" to "everything fits",
    reporting the optimal k = 2 schedule cost at each budget.  Expected
    shape: cost is nonincreasing in b, with steps where richer
    configurations (e.g. [{I(a,b), I(c,d)}]) become feasible; at the
    high end a single phase-spanning pair design can even remove the need
    to change designs at all. *)

type point = {
  bound_bytes : int option;  (** [None] = unbounded *)
  n_configs : int;  (** configurations that fit the budget *)
  cost : float;  (** optimal k = 2 sequence cost *)
  changes : int;
  largest_design : string;  (** the biggest design used by the schedule *)
}

type result = { points : point list }

val run : ?bounds:int option list -> ?cell_jobs:int -> Session.t -> result
(** One {!Runner} cell per bound, each building its own problem over the
    pre-resolved session statistics.  Default bounds: 1 byte (only the
    empty design), the size of one single-column index, one composite
    index, two composites, and unbounded.  Every reported field is
    deterministic and independent of [cell_jobs]. *)

val print : result -> unit
