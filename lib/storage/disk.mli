(** Simulated disk: a growable array of pages with counted I/O.

    The paper's experiments ran against SQL Server on real hardware; here
    the "disk" is an in-memory page store that counts every page read and
    write, so that execution costs can be measured deterministically in
    page-I/O units.  All structured access should go through
    {!Buffer_pool}; this module is the raw device.

    Invariants: page ids are dense — [allocate] returns consecutive ids
    starting at 0, ids are never reused, and any read/write of an
    unallocated id is a programming error ([Invalid_argument]), never a
    silent grow.  Reads and writes copy whole pages by value, so a page
    buffer handed to [read_into] can be mutated freely without aliasing
    the store.  Every transfer bumps the corresponding per-disk counter
    ({!stats}) and, when instrumentation is enabled, the process-wide
    observability counters [disk.page_reads], [disk.page_writes] and
    [disk.pages_allocated] (see docs/OBSERVABILITY.md). *)

type t

type stats = { reads : int; writes : int; allocated : int }

val create : unit -> t
(** An empty disk. *)

val allocate : t -> int
(** [allocate t] reserves a fresh zeroed page and returns its page id. *)

val n_pages : t -> int
(** Number of allocated pages. *)

val read_into : t -> int -> Page.t -> unit
(** [read_into t pid dst] copies page [pid] from the disk into [dst],
    counting one read.  Raises [Invalid_argument] on an unallocated id. *)

val write_from : t -> int -> Page.t -> unit
(** [write_from t pid src] copies [src] onto page [pid], counting one
    write.  Raises [Invalid_argument] on an unallocated id. *)

val stats : t -> stats
(** Cumulative I/O counters. *)

val reads : t -> int
(** The [reads] of {!stats}, without building the record. *)
