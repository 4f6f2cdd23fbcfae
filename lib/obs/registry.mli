(** The global metric registry and the instrumentation on/off switch.

    Instrumented modules obtain their metrics once, at module
    initialisation time ([let hits = Registry.counter "buffer_pool.hits"]),
    so every registered metric name is visible in snapshots from process
    start — a zero value means "instrumented but not hit", an absent name
    means "not linked in".  Recording is gated on {!enabled}: with
    instrumentation off (the default), every call site costs a single
    boolean load.

    Counter and histogram names share one namespace; registering a name as
    both kinds raises [Invalid_argument].  Names are dotted paths,
    [<module>.<event>] — see docs/OBSERVABILITY.md for the catalogue. *)

val enabled : unit -> bool
(** Whether instrumentation is currently recording.  Off at startup. *)

val enable : unit -> unit

val disable : unit -> unit

val with_enabled : (unit -> 'a) -> 'a
(** Run [f] with instrumentation on, restoring the previous state after
    (also on exception). *)

val counter : string -> Counter.t
(** Get-or-create the counter registered under [name].  Registration works
    even while disabled.  Raises [Invalid_argument] if [name] is already a
    histogram. *)

val histogram : string -> Histogram.t
(** Get-or-create the histogram registered under [name].  Raises
    [Invalid_argument] if [name] is already a counter. *)

val fold_counters : (Counter.t -> 'a -> 'a) -> 'a -> 'a
(** Fold over every registered counter, in unspecified order. *)

val fold_histograms : (Histogram.t -> 'a -> 'a) -> 'a -> 'a

val reset_values : unit -> unit
(** Zero every registered metric.  The registrations themselves
    persist. *)
