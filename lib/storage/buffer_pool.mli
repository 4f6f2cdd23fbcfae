(** Buffer pool over a {!Disk} with clock (second-chance) replacement.

    All heap-file and B+-tree page accesses go through the pool.  A fetched
    page is pinned until released; unpinned frames are replaced by a clock
    sweep (approximate LRU, amortised O(1) per miss), writing dirty pages
    back to disk.  Hit and miss counters let the engine report logical vs.
    physical I/O.

    {2 Frames alias the stored page}

    A frame holds the {!Disk}'s stored page itself ({!Disk.read}), not a
    private copy: a miss or a readahead counts one disk read and copies
    nothing, and a dirty write-back counts one disk write and copies
    nothing.  A frame therefore owns no page memory of its own.  Because
    the bytes a pinned handle mutates are the stored bytes, a mutation is
    never lost; {!mark_dirty} still decides whether eviction (or a flush)
    counts a write-back, which is what the I/O accounting measures.

    {2 Pin/unpin discipline}

    Every handle returned by {!fetch}, {!fetch_sequential} or {!allocate}
    holds one pin; the caller must {!unpin} it exactly once, after which
    the handle must not be used again (its frame may be reassigned to
    another page at any later miss).  Pins nest: fetching an
    already-pinned page increments its pin count, and the frame is only
    evictable when the count returns to zero.  Holding many pins
    concurrently risks [Failure] on a miss — eviction needs at least one
    unpinned frame — so access methods pin briefly: fetch, read/write,
    unpin.  A pinned page's buffer must be marked with {!mark_dirty}
    before the pin is released whenever it was mutated, so that its
    write-back is counted.

    {2 Clock-sweep eviction policy}

    Frames form a circular list with a sweep hand.  A {!fetch} sets the
    frame's reference bit; a miss with no free frame advances the hand,
    skipping pinned frames and clearing reference bits, and takes the first
    unpinned frame whose bit is already clear.  Each frame therefore
    survives one full revolution after its last access (the "second
    chance"), approximating LRU with O(1) state per frame.  Two full
    sweeps guarantee termination: after the first, every unpinned frame's
    bit is clear, so only an all-pinned pool fails.  Evicting a dirty
    frame writes the page back first ({e write-back}, not write-through:
    clean evictions cost no disk write).

    {2 Sequential scans}

    {!fetch_sequential} is the scan hot path used by
    [Heap_file.scan].  It differs from {!fetch} in three
    ways, none of which change logical-I/O accounting (a scan fetch is
    still exactly one hit or one miss):

    - {e scan resistance}: sequential fetches never set the reference
      bit, and their victim search takes only frames that are already
      unreferenced — without clearing anyone else's bit.  A scan larger
      than the pool therefore recycles its own trail of frames and cannot
      flush the referenced working set.  (If every frame is referenced or
      pinned, the search falls back to the normal clearing sweep so the
      fetch still terminates.)
    - {e readahead}: a sequential miss prefetches up to the pool's
      readahead budget of upcoming non-resident pages of the scan's page
      run, each taking a spare frame, so they are hits when the scan
      reaches them.  A prefetched frame sits unpinned and
      unreferenced, marked as an unconsumed prefetch until its first
      fetch.  A batch takes only free frames, or unpinned, unreferenced
      frames that hold no unconsumed prefetch, and it never clears a
      reference bit: it stops early when one revolution of the hand finds
      no such frame.  So it never evicts its own pinned leader, the
      referenced working set or its own earlier prefetches: with nothing
      else touching the pool mid-scan, a scan reads each page of its run
      from disk at most once (a page no batch had a frame for is simply
      a miss when the scan reaches it).
    - {e last-page memo}: consecutive fetches of the same page (common
      when a scan re-reads the tail page) skip the page-table probe via a
      one-entry memo.  The page table itself is a dense array indexed by
      page id ({!Disk.allocate} hands ids out densely), grown on demand.  The memo needs no invalidation: it is validated by
      the frame's page id, which eviction resets.

    {2 Observability}

    When instrumentation is enabled ({!Cddpd_obs.Registry.enable}), every
    pool also feeds the process-wide counters [buffer_pool.hits],
    [buffer_pool.misses], [buffer_pool.evictions],
    [buffer_pool.write_backs], [buffer_pool.scan_fetches] and
    [buffer_pool.readahead_pages]; {!stats} remains the per-pool view. *)

type t

type handle
(** A pinned page.  The underlying buffer stays valid until {!unpin};
    after that the handle is dead and must not be reused. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  scan_fetches : int;  (** calls to {!fetch_sequential} (each also a hit or miss) *)
  readahead_pages : int;  (** pages prefetched ahead of sequential misses *)
}

val default_readahead : int
(** Default readahead budget (pages prefetched per sequential miss). *)

val create : ?capacity:int -> ?readahead:int -> Disk.t -> t
(** [create ?capacity ?readahead disk] makes a pool holding at most
    [capacity] pages (default 256).  [readahead] bounds how many upcoming
    pages a sequential miss prefetches (default {!default_readahead};
    [0] disables readahead; a batch also stops when no spare frame is
    left, see the module preamble).  Raises
    [Invalid_argument] if [capacity <= 0] or [readahead < 0]. *)

val fetch : t -> int -> handle
(** [fetch t pid] pins page [pid], reading it from disk on a miss (a hit
    costs no disk I/O).  Fetching a page that is already pinned returns
    the same frame with its pin count incremented.  Raises [Failure] if a
    miss finds every frame pinned. *)

val fetch_sequential : t -> run:int array -> pos:int -> handle
(** [fetch_sequential t ~run ~pos] pins page [run.(pos)] as part of a
    sequential scan over the page run [run] (scan order, one array per
    scan) — scan-resistant eviction plus readahead of [run.(pos+1 ...)]
    on a miss; see the module preamble.  Exactly one hit or one miss is
    counted, like {!fetch}.  Raises [Failure] if a miss finds every frame
    pinned. *)

val allocate : t -> handle
(** Allocate a fresh zeroed page on the disk and pin it (dirty), without a
    disk read. *)

val page : handle -> Page.t
(** The pinned page buffer.  Mutating it requires {!mark_dirty}. *)

val page_id : handle -> int
(** The disk page id of the pinned page. *)

val mark_dirty : handle -> unit
(** Record that the page buffer was modified, so that eviction (or
    {!drop_cache}) counts one write-back for it.  Without it the mutation
    still reaches the stored page (the frame aliases it), but no write is
    counted. *)

val unpin : t -> handle -> unit
(** Release one pin (must pair with the {!fetch}/{!allocate} that took
    it).  The page stays cached; it merely becomes evictable once its pin
    count reaches zero.  Raises [Invalid_argument] if the handle is not
    pinned. *)

val release : t -> int -> unit
(** [release t pid] gives page [pid] back to the disk ({!Disk.release})
    once the structure that owned it is dropped; its id is never
    reused.  A frame still holding [pid] keeps it, with its reference
    bit, dirty flag and place in the clock, and lets go only of the
    bytes (it points at an empty placeholder page): the clock evicts it
    exactly when it would have, a dirty one still counts its
    write-back, and hits, misses, evictions and readahead are those of
    a pool that never released.  The page must not be fetched again.
    Raises [Invalid_argument] on an unallocated or released id, or when
    the page is pinned. *)

val drop_cache : t -> unit
(** Flush and forget every unpinned frame (each emptied frame lets go of
    its page): the next access to any page is a disk read.  Used to
    measure cold-cache costs.  Raises [Failure] if a frame is still
    pinned. *)

val stats : t -> stats
(** Cumulative per-pool counters. *)

val accesses : t -> int
(** [hits + misses] of {!stats}, without building the record: the
    logical I/O counter a statement's execution is measured by. *)

val reset_stats : t -> unit
(** Zero the counters. *)
