(** Simulated disk: a growable array of pages with counted I/O.

    The paper's experiments ran against SQL Server on real hardware; here
    the "disk" is an in-memory page store that counts every page read and
    write, so that execution costs can be measured deterministically in
    page-I/O units.  All structured access should go through
    {!Buffer_pool}; this module is the raw device.

    Invariants: page ids are dense — [allocate] returns consecutive ids
    starting at 0, ids are never reused (not even a {!release}d one), and
    any read/write of an unallocated id is a programming error
    ([Invalid_argument]), never a silent grow.  A transfer moves no bytes: {!read} hands out the stored
    page itself, so a mutation of it is a mutation of the disk page, and
    {!write} only counts.  What a transfer costs is its count: every
    {!read} and {!write} bumps the corresponding per-disk counter
    ({!stats}) and, when instrumentation is enabled, the process-wide
    observability counters [disk.page_reads], [disk.page_writes] and
    [disk.pages_allocated] (see docs/OBSERVABILITY.md).

    {2 Release}

    {!release} gives a page's bytes back: the id's stored page becomes
    one tombstone shared by every disk, so the disk no longer keeps the
    page alive, and the id stays spent.  [allocated - released] of
    {!stats} is the pages the disk holds.  A buffer-pool frame that
    still holds the id lets go of the bytes too but keeps its place in
    the clock ({!Buffer_pool.release}), and its later write-back is
    still a counted {!write}: release changes no count but its own, so
    every I/O count, page id and eviction stays what it would be without
    it. *)

type t

type stats = {
  reads : int;
  writes : int;
  allocated : int;  (** ids handed out, released ones included *)
  released : int;  (** ids {!release}d: [allocated - released] pages are held *)
}

val create : unit -> t
(** An empty disk. *)

val allocate : t -> int * Page.t
(** [allocate t] reserves a fresh zeroed page and returns its page id and
    the stored page.  No read is counted: a fresh page holds nothing to
    read. *)

val n_pages : t -> int
(** Number of ids allocated, released ones included. *)

val read : t -> int -> Page.t
(** [read t pid] is page [pid] as stored (not a copy), counting one read.
    Raises [Invalid_argument] on an unallocated or released id. *)

val write : t -> int -> unit
(** [write t pid] counts one write of page [pid], whose stored bytes the
    caller has already changed in place.  Raises [Invalid_argument] on an
    unallocated id.  A released id still counts: it is the write-back of
    a frame that aliased the page before its release. *)

val release : t -> int -> unit
(** [release t pid] swaps page [pid]'s stored bytes for the shared
    tombstone and counts it in [released] and [disk.pages_released].
    The id is not reused: the next {!allocate} returns a fresh one, a
    later {!read} of [pid] raises [Invalid_argument], and {!write} still
    counts.  Raises [Invalid_argument] on an unallocated or already
    released id. *)

val stats : t -> stats
(** Cumulative I/O counters. *)

val reads : t -> int
(** The [reads] of {!stats}, without building the record. *)
