(* Tests for Cddpd_obs: counter/histogram registration and gating, snapshot
   capture and diffing, span nesting, and an end-to-end smoke test checking
   that buffer-pool observability counters agree with the pool's own
   statistics on a small workload. *)

module Registry = Cddpd_obs.Registry
module Counter = Cddpd_obs.Counter
module Histogram = Cddpd_obs.Histogram
module Snapshot = Cddpd_obs.Snapshot
module Span = Cddpd_obs.Span
module Sink = Cddpd_obs.Sink
module Disk = Cddpd_storage.Disk
module Buffer_pool = Cddpd_storage.Buffer_pool

let check_float = Alcotest.(check (float 1e-9))

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  n = 0 || at 0

(* Metrics and spans are global; give every test a clean, disabled slate. *)
let fresh f () =
  Registry.reset_values ();
  Span.reset ();
  Registry.disable ();
  Fun.protect
    ~finally:(fun () ->
      Registry.disable ();
      Registry.reset_values ();
      Span.reset ())
    f

(* -- registry & counters -------------------------------------------------- *)

let test_counter_registration () =
  let a = Registry.counter "test_obs.counter_a" in
  let a' = Registry.counter "test_obs.counter_a" in
  Alcotest.(check bool) "get-or-create returns the same counter" true (a == a');
  Alcotest.check_raises "name clash with histogram rejected"
    (Invalid_argument "Registry.counter: test_obs.hist_clash is a histogram")
    (fun () ->
      ignore (Registry.histogram "test_obs.hist_clash");
      ignore (Registry.counter "test_obs.hist_clash"))

let test_counter_gating () =
  let c = Registry.counter "test_obs.gated" in
  Counter.incr c;
  Counter.add c 10;
  Alcotest.(check int) "disabled increments are dropped" 0 (Counter.value c);
  Registry.enable ();
  Counter.incr c;
  Counter.add c 10;
  Alcotest.(check int) "enabled increments land" 11 (Counter.value c);
  Registry.disable ();
  Counter.incr c;
  Alcotest.(check int) "disabled again" 11 (Counter.value c);
  Registry.reset_values ();
  Alcotest.(check int) "reset_values zeroes" 0 (Counter.value c)

let test_histogram () =
  let h = Registry.histogram "test_obs.latency" in
  Registry.enable ();
  List.iter (Histogram.observe h) [ 4.0; 1.0; 3.0; 2.0; 5.0 ];
  Alcotest.(check int) "count" 5 (Histogram.count h);
  check_float "mean" 3.0 (Histogram.mean h);
  check_float "p50" 3.0 (Histogram.percentile h 50.0);
  check_float "max" 5.0 (Histogram.max_value h);
  Registry.disable ();
  Histogram.observe h 100.0;
  Alcotest.(check int) "disabled observe dropped" 5 (Histogram.count h)

(* -- snapshots ------------------------------------------------------------- *)

let test_snapshot_diff () =
  let c = Registry.counter "test_obs.diffed" in
  let h = Registry.histogram "test_obs.diffed_hist" in
  Registry.enable ();
  Counter.add c 5;
  Histogram.observe h 1.0;
  let before = Snapshot.capture () in
  Counter.add c 37;
  Histogram.observe h 2.0;
  Histogram.observe h 4.0;
  let delta = Snapshot.diff ~before ~after:(Snapshot.capture ()) in
  Alcotest.(check (option int)) "counter delta" (Some 37)
    (Snapshot.counter_value delta "test_obs.diffed");
  (match Snapshot.find delta "test_obs.diffed_hist" with
  | Some (Snapshot.Dist d) ->
      Alcotest.(check int) "histogram count delta" 2 d.Snapshot.count;
      check_float "histogram sum delta" 6.0 d.Snapshot.sum;
      check_float "histogram mean of delta" 3.0 d.Snapshot.mean
  | Some (Snapshot.Count _) | None -> Alcotest.fail "missing histogram entry");
  Alcotest.(check bool) "delta is not empty" false (Snapshot.is_empty delta)

let test_snapshot_sinks () =
  let c = Registry.counter "test_obs.rendered" in
  Registry.enable ();
  Counter.add c 7;
  let snapshot = Snapshot.capture () in
  let table = Sink.render Sink.Table snapshot in
  let json = Sink.render Sink.Json_lines snapshot in
  Alcotest.(check bool) "table mentions the metric" true
    (contains ~affix:"test_obs.rendered" table);
  Alcotest.(check bool) "json line carries the value" true
    (contains
       ~affix:"{\"metric\":\"test_obs.rendered\",\"type\":\"counter\",\"value\":7}"
       json)

(* -- spans ------------------------------------------------------------------ *)

let test_span_nesting () =
  Registry.enable ();
  let result =
    Span.with_span "outer" (fun () ->
        Span.with_span "inner" (fun () -> ());
        Span.with_span "inner" (fun () -> ());
        Span.with_span "other" (fun () -> ());
        17)
  in
  Alcotest.(check int) "with_span returns f's result" 17 result;
  match Span.roots () with
  | [ outer ] ->
      Alcotest.(check string) "root name" "outer" (Span.name outer);
      Alcotest.(check int) "root calls" 1 (Span.calls outer);
      let children = Span.children outer in
      Alcotest.(check (list string)) "children in first-opened order"
        [ "inner"; "other" ]
        (List.map Span.name children);
      Alcotest.(check (list int)) "same-name spans aggregate" [ 2; 1 ]
        (List.map Span.calls children);
      List.iter
        (fun child ->
          Alcotest.(check bool) "child time <= parent time" true
            (Span.total_s child <= Span.total_s outer))
        children
  | roots ->
      Alcotest.fail (Printf.sprintf "expected 1 root span, got %d" (List.length roots))

let test_span_disabled_and_exceptional () =
  Span.with_span "invisible" (fun () -> ());
  Alcotest.(check int) "disabled spans record nothing" 0 (List.length (Span.roots ()));
  Registry.enable ();
  (try Span.with_span "raises" (fun () -> failwith "boom") with Failure _ -> ());
  match Span.roots () with
  | [ node ] ->
      Alcotest.(check string) "span closed despite raise" "raises" (Span.name node);
      Alcotest.(check int) "call recorded" 1 (Span.calls node)
  | _ -> Alcotest.fail "expected exactly the raising span"

(* -- storage smoke test ------------------------------------------------------ *)

let test_buffer_pool_accounting () =
  Registry.enable ();
  let disk = Disk.create () in
  let pool = Buffer_pool.create ~capacity:8 disk in
  let pids =
    List.init 32 (fun _ ->
        let handle = Buffer_pool.allocate pool in
        let pid = Buffer_pool.page_id handle in
        Buffer_pool.unpin pool handle;
        pid)
  in
  (* Align the two accounting systems: the snapshot diff covers only what
     follows, so take the pool's cumulative stats at the same instant
     (allocation above already evicted through the 8-frame pool). *)
  let pool_before = Buffer_pool.stats pool in
  let before = Snapshot.capture () in
  let fetches = ref 0 in
  (* Sweep the 32 pages twice through an 8-frame pool: plenty of misses and
     evictions; then re-touch a resident page for guaranteed hits. *)
  for _ = 1 to 2 do
    List.iter
      (fun pid ->
        let handle = Buffer_pool.fetch pool pid in
        incr fetches;
        Buffer_pool.unpin pool handle)
      pids
  done;
  let last = List.nth pids 31 in
  for _ = 1 to 5 do
    let handle = Buffer_pool.fetch pool last in
    incr fetches;
    Buffer_pool.unpin pool handle
  done;
  let delta = Snapshot.diff ~before ~after:(Snapshot.capture ()) in
  let counter name =
    match Snapshot.counter_value delta name with
    | Some n -> n
    | None -> Alcotest.fail (name ^ " missing from snapshot")
  in
  let hits = counter "buffer_pool.hits" and misses = counter "buffer_pool.misses" in
  Alcotest.(check int) "hits + misses = total fetches" !fetches (hits + misses);
  Alcotest.(check bool) "some hits and some misses" true (hits > 0 && misses > 0);
  let stats = Buffer_pool.stats pool in
  let pool_delta field = field stats - field pool_before in
  Alcotest.(check int) "obs hits match pool stats" (pool_delta (fun s -> s.Buffer_pool.hits)) hits;
  Alcotest.(check int) "obs misses match pool stats"
    (pool_delta (fun s -> s.Buffer_pool.misses))
    misses;
  Alcotest.(check int) "obs evictions match pool stats"
    (pool_delta (fun s -> s.Buffer_pool.evictions))
    (counter "buffer_pool.evictions");
  Alcotest.(check int) "every miss is a disk page read" misses
    (counter "disk.page_reads")

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counter registration" `Quick (fresh test_counter_registration);
          Alcotest.test_case "counter gating" `Quick (fresh test_counter_gating);
          Alcotest.test_case "histogram" `Quick (fresh test_histogram);
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "diff" `Quick (fresh test_snapshot_diff);
          Alcotest.test_case "sinks" `Quick (fresh test_snapshot_sinks);
        ] );
      ( "span",
        [
          Alcotest.test_case "nesting" `Quick (fresh test_span_nesting);
          Alcotest.test_case "disabled & exceptional" `Quick
            (fresh test_span_disabled_and_exceptional);
        ] );
      ( "storage",
        [
          Alcotest.test_case "buffer pool accounting" `Quick
            (fresh test_buffer_pool_accounting);
        ] );
    ]
