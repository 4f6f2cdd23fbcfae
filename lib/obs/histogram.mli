(** Float-valued distributions (timings, costs).

    Unlike {!Cddpd_engine.Histogram} (equi-width column statistics), this
    is an observability primitive: it records every observed sample so
    snapshots can report exact percentiles through
    [Cddpd_util.Stats.percentile].  {!observe} is a no-op while
    instrumentation is disabled.  On an empty histogram the summary
    accessors all return [0.].

    Histograms are normally obtained from {!Registry.histogram}. *)

type t

val make : string -> t
(** A fresh empty histogram.  Not registered with the {!Registry}. *)

val name : t -> string

val observe : t -> float -> unit
(** Record one sample — only when instrumentation is enabled. *)

val count : t -> int

val sum : t -> float

val mean : t -> float

val percentile : t -> float -> float
(** [percentile t p] for [p] in [[0, 100]], exact over all samples. *)

val max_value : t -> float

val reset : t -> unit
(** Forget all samples (unconditionally). *)
