(** Snapshot output: the pluggable sink formats.

    Two formats are provided (docs/OBSERVABILITY.md specifies both):

    - [Table] — a human-readable text table ({!Cddpd_util.Text_table});
      counters fill the [value] column, histograms the count/mean/p50/p95/
      max columns.  What [cddpd --metrics] prints.
    - [Json_lines] — one JSON object per line, machine-readable; what the
      bench harness writes to [BENCH_obs.json].  Counter lines are
      [{"metric":name,"type":"counter","value":n}]; histogram lines carry
      [count]/[sum]/[mean]/[p50]/[p95]/[max].  Non-finite floats are
      emitted as [null]. *)

type format = Table | Json_lines

val render : format -> Snapshot.t -> string

val write_file : string -> format -> Snapshot.t -> unit
(** Write the snapshot to [path].  In [Json_lines] format the span-tree
    lines are appended after the metric lines. *)
