module Obs = Cddpd_obs

(* Global across all pools (the observability layer reports process-wide
   totals); [stats] remains the per-pool view. *)
let m_hits = Obs.Registry.counter "buffer_pool.hits"
let m_misses = Obs.Registry.counter "buffer_pool.misses"
let m_evictions = Obs.Registry.counter "buffer_pool.evictions"
let m_write_backs = Obs.Registry.counter "buffer_pool.write_backs"
let m_scan_fetches = Obs.Registry.counter "buffer_pool.scan_fetches"

(* A frame holds the disk's stored page itself ([Disk.read]), so a miss
   and a write-back move no bytes; an empty frame, and a frame whose page
   was released, points at [placeholder], which nothing writes to because
   no live handle reaches it. *)
type frame = {
  index : int; (* position in [frames] *)
  mutable pid : int; (* -1 when the frame is empty *)
  mutable buffer : Page.t;
  mutable pins : int;
  mutable dirty : bool;
  mutable referenced : bool; (* second-chance bit *)
}

type handle = frame

type t = {
  disk : Disk.t;
  frames : frame array;
  mutable slots : int array;
      (* page id -> index of the frame holding it, -1 when not resident;
         [Disk.allocate] hands out dense ids, so this grows with the disk *)
  mutable free : int list; (* indices of empty frames *)
  mutable hand : int; (* clock hand *)
  (* One-entry memo: the frame returned by the most recent fetch.  Checking
     [last.pid = pid] is sound without any invalidation hook because
     [evict] resets [pid] to -1 before a frame is reused and [pid] is only
     ever set together with the matching [slots] entry — so a matching
     pid proves the frame still holds that page. *)
  mutable last : frame;
  mutable hit_count : int;
  mutable miss_count : int;
  mutable eviction_count : int;
  mutable scan_fetch_count : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  scan_fetches : int;
}

let placeholder = Page.create ()

let create ?(capacity = 256) disk =
  if capacity <= 0 then invalid_arg "Buffer_pool.create: capacity <= 0";
  let make_frame index =
    { index; pid = -1; buffer = placeholder; pins = 0; dirty = false; referenced = false }
  in
  let frames = Array.init capacity make_frame in
  {
    disk;
    frames;
    slots = Array.make (max 64 (Disk.n_pages disk)) (-1);
    free = List.init capacity (fun i -> i);
    hand = 0;
    last = make_frame (-1) (* dummy: pid = -1 never matches a real fetch *);
    hit_count = 0;
    miss_count = 0;
    eviction_count = 0;
    scan_fetch_count = 0;
  }

(* The frame index holding [pid], or -1. *)
let resident t pid =
  (* Unchecked: [pid] is inside [slots] by the test before it. *)
  if pid >= 0 && pid < Array.length t.slots then Array.unsafe_get t.slots pid else -1

let set_resident t frame =
  let pid = frame.pid in
  let n = Array.length t.slots in
  if pid >= n then begin
    let bigger = Array.make (max (2 * n) (pid + 1)) (-1) in
    Array.blit t.slots 0 bigger 0 n;
    t.slots <- bigger
  end;
  t.slots.(pid) <- frame.index

let write_back t frame =
  if frame.dirty then begin
    Disk.write t.disk frame.pid;
    Obs.Counter.incr m_write_backs;
    frame.dirty <- false
  end

(* Clock (second-chance) sweep: advance the hand, clearing reference bits,
   until an unpinned, unreferenced frame is found.  Amortised O(1) per
   miss.  Two full sweeps guarantee we revisit every frame after clearing
   its reference bit; only pins can then keep a frame unavailable. *)
let clock_sweep t =
  let n = Array.length t.frames in
  let rec sweep remaining =
    if remaining = 0 then failwith "Buffer_pool: all frames are pinned"
    else begin
      let frame = t.frames.(t.hand) in
      t.hand <- (t.hand + 1) mod n;
      if frame.pins > 0 then sweep (remaining - 1)
      else if frame.referenced then begin
        frame.referenced <- false;
        sweep (remaining - 1)
      end
      else frame
    end
  in
  sweep (2 * n)

let victim t =
  match t.free with
  | i :: rest ->
      t.free <- rest;
      t.frames.(i)
  | [] -> clock_sweep t

(* Scan-resistant victim search for a sequential miss: a free frame, else
   the first unpinned, unreferenced frame the hand meets within one
   revolution.  It never clears a reference bit.  Because sequential
   fetches leave their own frames unreferenced, a scan recycles its own
   trail of frames instead of demoting (and eventually flushing) the
   referenced working set.  If every frame is referenced or pinned, it
   falls back to the clearing sweep so the fetch still terminates. *)
let seq_victim t =
  match t.free with
  | i :: rest ->
      t.free <- rest;
      t.frames.(i)
  | [] ->
      let n = Array.length t.frames in
      let rec sweep remaining =
        if remaining = 0 then clock_sweep t
        else begin
          let frame = t.frames.(t.hand) in
          t.hand <- (t.hand + 1) mod n;
          if frame.pins = 0 && not frame.referenced then frame else sweep (remaining - 1)
        end
      in
      sweep n

let evict t frame =
  if frame.pid <> -1 then begin
    write_back t frame;
    t.slots.(frame.pid) <- -1;
    frame.pid <- -1;
    t.eviction_count <- t.eviction_count + 1;
    Obs.Counter.incr m_evictions
  end

let record_hit t frame =
  t.hit_count <- t.hit_count + 1;
  Obs.Counter.incr m_hits;
  frame.pins <- frame.pins + 1

let fetch t pid =
  let last = t.last in
  if last.pid = pid then begin
    record_hit t last;
    last.referenced <- true;
    last
  end
  else
    let i = resident t pid in
    let frame =
      if i >= 0 then begin
        let frame = t.frames.(i) in
        record_hit t frame;
        frame.referenced <- true;
        frame
      end
      else begin
        t.miss_count <- t.miss_count + 1;
        Obs.Counter.incr m_misses;
        let frame = victim t in
        evict t frame;
        frame.buffer <- Disk.read t.disk pid;
        frame.pid <- pid;
        frame.pins <- 1;
        frame.dirty <- false;
        frame.referenced <- true;
        set_resident t frame;
        frame
      end
    in
    t.last <- frame;
    frame

let fetch_sequential t pid =
  t.scan_fetch_count <- t.scan_fetch_count + 1;
  Obs.Counter.incr m_scan_fetches;
  let last = t.last in
  if last.pid = pid then begin
    record_hit t last;
    (* scan fetches never set the reference bit *)
    last
  end
  else
    let i = resident t pid in
    let frame =
      if i >= 0 then begin
        let frame = t.frames.(i) in
        record_hit t frame;
        frame
      end
      else begin
        t.miss_count <- t.miss_count + 1;
        Obs.Counter.incr m_misses;
        let frame = seq_victim t in
        evict t frame;
        frame.buffer <- Disk.read t.disk pid;
        frame.pid <- pid;
        frame.pins <- 1;
        frame.dirty <- false;
        frame.referenced <- false;
        set_resident t frame;
        frame
      end
    in
    t.last <- frame;
    frame

let allocate t =
  let pid, page = Disk.allocate t.disk in
  let frame = victim t in
  evict t frame;
  frame.buffer <- page;
  frame.pid <- pid;
  frame.pins <- 1;
  frame.dirty <- true;
  frame.referenced <- true;
  set_resident t frame;
  t.last <- frame;
  frame

let page frame = frame.buffer

let page_id frame = frame.pid

let mark_dirty frame = frame.dirty <- true

(* A frame that holds [pid] keeps it, with its pin count, bits and dirty
   flag, so the clock evicts it exactly when it would have without the
   release (counting its write-back); it only lets go of the bytes. *)
let release t pid =
  let i = resident t pid in
  if i >= 0 && t.frames.(i).pins > 0 then invalid_arg "Buffer_pool.release: page is pinned";
  Disk.release t.disk pid;
  if i >= 0 then t.frames.(i).buffer <- placeholder

let unpin _t frame =
  if frame.pins <= 0 then invalid_arg "Buffer_pool.unpin: handle not pinned";
  frame.pins <- frame.pins - 1

let stats t =
  {
    hits = t.hit_count;
    misses = t.miss_count;
    evictions = t.eviction_count;
    scan_fetches = t.scan_fetch_count;
  }

let accesses t = t.hit_count + t.miss_count

