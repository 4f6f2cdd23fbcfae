module Obs = Cddpd_obs

(* Global across all disks: the observability layer reports process-wide
   I/O totals; per-disk counts stay available through [stats]. *)
let m_page_reads = Obs.Registry.counter "disk.page_reads"
let m_page_writes = Obs.Registry.counter "disk.page_writes"
let m_pages_allocated = Obs.Registry.counter "disk.pages_allocated"
let m_pages_released = Obs.Registry.counter "disk.pages_released"

type t = {
  mutable pages : Page.t array;
  mutable used : int;
  mutable released : int;
  mutable read_count : int;
  mutable write_count : int;
}

type stats = { reads : int; writes : int; allocated : int; released : int }

(* What a released id stores, shared by every disk: [read] refuses it,
   so no handle ever reaches it and nothing writes to it. *)
let tombstone = Page.create ()

let create () =
  { pages = Array.make 64 tombstone; used = 0; released = 0; read_count = 0; write_count = 0 }

let grow t =
  let capacity = Array.length t.pages in
  let bigger = Array.make (capacity * 2) tombstone in
  Array.blit t.pages 0 bigger 0 capacity;
  t.pages <- bigger

let allocate t =
  if t.used >= Array.length t.pages then grow t;
  let pid = t.used in
  let page = Page.create () in
  t.pages.(pid) <- page;
  t.used <- t.used + 1;
  Obs.Counter.incr m_pages_allocated;
  (pid, page)

let n_pages t = t.used

let check t pid name =
  if pid < 0 || pid >= t.used then
    invalid_arg (Printf.sprintf "Disk.%s: page %d not allocated" name pid)

let read t pid =
  check t pid "read";
  let page = t.pages.(pid) in
  if page == tombstone then invalid_arg (Printf.sprintf "Disk.read: page %d released" pid);
  t.read_count <- t.read_count + 1;
  Obs.Counter.incr m_page_reads;
  page

let write t pid =
  check t pid "write";
  t.write_count <- t.write_count + 1;
  Obs.Counter.incr m_page_writes

let release t pid =
  check t pid "release";
  if t.pages.(pid) == tombstone then
    invalid_arg (Printf.sprintf "Disk.release: page %d already released" pid);
  t.pages.(pid) <- tombstone;
  t.released <- t.released + 1;
  Obs.Counter.incr m_pages_released

let stats t =
  { reads = t.read_count; writes = t.write_count; allocated = t.used; released = t.released }

let reads t = t.read_count
