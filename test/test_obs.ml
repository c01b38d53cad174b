(* Tests for the observability subsystem: the event ring (wraparound,
   drop accounting, the null tracer), the metrics registry (deterministic
   log-linear percentiles), the Perfetto sink's document shape, seed
   determinism of traces, and — the load-bearing invariant — that turning
   tracing on changes no simulated nanosecond, no NVM counter, no minor
   word allocated per op, and no crash-recovery or chaos outcome
   (DESIGN.md §8/§10). *)

module Rng = Kamino_sim.Rng
module Engine = Kamino_core.Engine
module Kv = Kamino_kv.Kv
module Obs = Kamino_obs.Obs
module Metrics = Kamino_obs.Metrics
module Sink = Kamino_obs.Sink
module Async = Kamino_chain.Async_chain
module Cchaos = Kamino_chaos.Cluster_chaos

(* --- event ring ------------------------------------------------------------ *)

let test_ring_wraparound () =
  let o = Obs.create ~capacity:16 () in
  Alcotest.(check bool) "enabled" true (Obs.enabled o);
  Alcotest.(check int) "capacity honored" 16 (Obs.capacity o);
  for i = 0 to 39 do
    Obs.emit o ~kind:Obs.k_commit ~track:1 ~ts:(i * 10) ~dur:1 ~a:i ~b:0 ~c:0
  done;
  Alcotest.(check int) "ring holds capacity" 16 (Obs.length o);
  Alcotest.(check int) "overflow counted as drops" 24 (Obs.dropped o);
  Alcotest.(check int) "total = held + dropped" 40 (Obs.total o);
  (* Survivors are exactly the newest [capacity] events, oldest first. *)
  let got = ref [] in
  Obs.iter o (fun ~kind:_ ~track:_ ~ts:_ ~dur:_ ~a ~b:_ ~c:_ -> got := a :: !got);
  Alcotest.(check (list int)) "newest events survive, in order"
    (List.init 16 (fun i -> 24 + i))
    (List.rev !got);
  Obs.reset o;
  Alcotest.(check int) "reset empties the ring" 0 (Obs.length o);
  Alcotest.(check int) "reset clears drops" 0 (Obs.dropped o)

let test_null_tracer () =
  Alcotest.(check bool) "null is disabled" false (Obs.enabled Obs.null);
  Obs.emit Obs.null ~kind:Obs.k_flush ~track:0 ~ts:1 ~dur:1 ~a:1 ~b:1 ~c:1;
  Obs.name_track Obs.null 3 "ghost";
  Alcotest.(check int) "null records nothing" 0 (Obs.length Obs.null);
  Alcotest.(check (list (pair int string))) "null names nothing" [] (Obs.tracks Obs.null)

(* --- multi-ring merge -------------------------------------------------------- *)

let test_merged_order () =
  let a = Obs.create ~capacity:8 () in
  let b = Obs.create ~capacity:8 () in
  Obs.name_track a 1 "one";
  Obs.name_track b 0 "zero";
  Obs.emit a ~kind:Obs.k_commit ~track:1 ~ts:5 ~dur:1 ~a:50 ~b:0 ~c:0;
  Obs.emit a ~kind:Obs.k_commit ~track:1 ~ts:10 ~dur:1 ~a:51 ~b:0 ~c:0;
  Obs.emit b ~kind:Obs.k_commit ~track:0 ~ts:7 ~dur:1 ~a:52 ~b:0 ~c:0;
  let m = Obs.merged [| a; b |] in
  let got = ref [] in
  Obs.iter m (fun ~kind:_ ~track ~ts ~dur:_ ~a ~b:_ ~c:_ ->
      got := (track, ts, a) :: !got);
  Alcotest.(check (list (triple int int int)))
    "sorted by (track, ts)"
    [ (0, 7, 52); (1, 5, 50); (1, 10, 51) ]
    (List.rev !got);
  Alcotest.(check (list (pair int string)))
    "track names union"
    [ (0, "zero"); (1, "one") ]
    (List.sort compare (Obs.tracks m));
  Alcotest.(check int) "no drops" 0 (Obs.dropped m);
  Alcotest.(check bool) "all-null input merges to null" false
    (Obs.enabled (Obs.merged [| Obs.null |]))

(* The parallel driver's invariant, stressed directly: one ring per domain,
   each mutated only by its owner, merged afterwards — across a 4 x 10k
   event burst nothing is lost, duplicated, or reordered within a track. *)
let test_merged_domain_stress () =
  let domains = 4 and events = 10_000 in
  let rings = Array.init domains (fun _ -> Obs.create ~capacity:16_384 ()) in
  let worker d () =
    let r = rings.(d) in
    for i = 0 to events - 1 do
      Obs.emit r ~kind:Obs.k_commit ~track:d ~ts:i ~dur:1 ~a:(succ i) ~b:d ~c:0
    done
  in
  let spawned = Array.init (domains - 1) (fun k -> Domain.spawn (worker (k + 1))) in
  worker 0 ();
  Array.iter Domain.join spawned;
  let m = Obs.merged rings in
  Alcotest.(check int) "no event lost across domains" (domains * events)
    (Obs.length m);
  Alcotest.(check int) "no drops" 0 (Obs.dropped m);
  let next = Array.make domains 0 in
  Obs.iter m (fun ~kind:_ ~track ~ts ~dur:_ ~a ~b ~c:_ ->
      if b <> track then Alcotest.failf "track %d: payload crossed rings" track;
      if ts <> next.(track) || a <> succ ts then
        Alcotest.failf "track %d: saw ts=%d a=%d, expected ts=%d (lost or duplicated)"
          track ts a next.(track);
      next.(track) <- ts + 1);
  Array.iteri
    (fun d n -> Alcotest.(check int) (Printf.sprintf "track %d complete" d) events n)
    next

(* --- metrics registry ------------------------------------------------------- *)

let test_metrics_counters () =
  let r = Metrics.create () in
  let c = Metrics.counter r "engine.committed" in
  Metrics.incr c;
  Metrics.add c 4;
  Alcotest.(check int) "incr + add" 5 (Metrics.value c);
  let c' = Metrics.counter r "engine.committed" in
  Metrics.incr c';
  Alcotest.(check int) "same name, same handle" 6 (Metrics.value c);
  Metrics.set c 42;
  Alcotest.(check int) "set overwrites" 42 (Metrics.value c);
  let names =
    Metrics.fold_counters r ~init:[] ~f:(fun acc name v -> (name, v) :: acc)
  in
  Alcotest.(check (list (pair string int)))
    "fold enumerates sorted"
    [ ("engine.committed", 42) ]
    (List.rev names)

let test_metrics_percentiles () =
  let r = Metrics.create () in
  let h = Metrics.hist r "wait" in
  for v = 1 to 100 do
    Metrics.observe h v
  done;
  Alcotest.(check int) "count" 100 (Metrics.count h);
  Alcotest.(check int) "max" 100 (Metrics.max_value h);
  Alcotest.(check (float 0.001)) "mean" 50.5 (Metrics.mean h);
  (* Values below 64 have a bucket each, so rank 50 is reported exactly.
     Above, buckets are 2 wide: 99 sits in [98, 99], and 100 in
     [100, 101], whose upper bound clamps to the observed max. *)
  Alcotest.(check int) "p50 exact" 50 (Metrics.percentile h 50.0);
  Alcotest.(check int) "p99 = bucket upper bound" 99 (Metrics.percentile h 99.0);
  Alcotest.(check int) "p100 clamps to max" 100 (Metrics.percentile h 100.0);
  Metrics.observe h (-5);
  Alcotest.(check int) "negatives clamp to 0" 101 (Metrics.count h);
  let empty = Metrics.hist r "empty" in
  Alcotest.(check int) "empty percentile" 0 (Metrics.percentile empty 99.0);
  Alcotest.(check (float 0.001)) "empty mean" 0.0 (Metrics.mean empty)

(* The [ceil (p/100 * n)]-th smallest sample, the rank
   [Metrics.percentile] reports. *)
let nearest_rank samples p =
  let sorted = Array.of_list (List.sort compare samples) in
  let n = Array.length sorted in
  let r = int_of_float (ceil (p /. 100. *. float_of_int n)) in
  sorted.(max 1 (min n r) - 1)

let hist_of samples =
  let h = Metrics.hist (Metrics.create ()) "h" in
  List.iter (Metrics.observe h) samples;
  h

let test_hist_exact_below_64 () =
  let samples = List.init 64 Fun.id in
  let h = hist_of samples in
  for p = 1 to 100 do
    let p = float_of_int p in
    Alcotest.(check int)
      (Printf.sprintf "p%.0f" p)
      (nearest_rank samples p) (Metrics.percentile h p)
  done

(* Non-negative ints spread over every magnitude up to [max_int]. *)
let samples_arb =
  let open QCheck in
  let value = Gen.map2 (fun shift x -> (x land max_int) lsr shift) (Gen.int_range 0 62) Gen.int in
  make ~print:Print.(list int) Gen.(list_size (int_range 1 300) value)

let test_hist_error_bound =
  QCheck.Test.make ~count:500 ~name:"percentile in [exact, exact + exact/32]" samples_arb
    (fun samples ->
      let h = hist_of samples in
      List.for_all
        (fun p ->
          let exact = nearest_rank samples p and got = Metrics.percentile h p in
          exact <= got && got - exact <= exact / 32)
        [ 50.; 95.; 99.; 99.9 ])

let test_hist_merge =
  QCheck.Test.make ~count:200 ~name:"merge a b = observing the union"
    (QCheck.pair samples_arb samples_arb) (fun (a, b) ->
      let ha = hist_of a and hb = hist_of b and hu = hist_of (a @ b) in
      Metrics.merge ~into:ha hb;
      let ps = Array.init 101 float_of_int in
      Metrics.count ha = Metrics.count hu
      && Metrics.sum ha = Metrics.sum hu
      && Metrics.max_value ha = Metrics.max_value hu
      && Metrics.percentiles ha ps = Metrics.percentiles hu ps)

let test_hist_observe_no_alloc () =
  let h = Metrics.hist (Metrics.create ()) "h" in
  let w0 = Gc.minor_words () in
  for i = 1 to 100_000 do
    Metrics.observe h (i * 7919)
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.)) "minor words" 0. words

let test_hist_extremes () =
  let h = hist_of [ -5; min_int ] in
  Alcotest.(check int) "negatives counted" 2 (Metrics.count h);
  Alcotest.(check int) "negatives clamp to 0" 0 (Metrics.sum h);
  Alcotest.(check int) "p99 of clamped" 0 (Metrics.percentile h 99.);
  let h = hist_of [ max_int; max_int / 2 ] in
  Alcotest.(check int) "max_int kept" max_int (Metrics.max_value h);
  Alcotest.(check int) "p100 = max_int" max_int (Metrics.percentile h 100.);
  let p50 = Metrics.percentile h 50. in
  Alcotest.(check bool) "p50 within 1/32 of max_int/2" true
    (p50 >= max_int / 2 && p50 - (max_int / 2) <= max_int / 64)

(* --- a small deterministic engine workload ---------------------------------- *)

let config =
  {
    Engine.default_config with
    Engine.heap_bytes = 4 * 1024 * 1024;
    log_slots = 128;
    data_log_bytes = 2 * 1024 * 1024;
  }

let rounds = 400

(* Returns the engine, the store, the model's contents and the minor words
   allocated per op over the op loop. *)
let run_workload ?obs ?(crashes = false) kind =
  let e = Engine.create ~config ?obs ~kind ~seed:11 () in
  let kv = ref (Kv.create e ~value_size:256 ~node_size:512) in
  let rng = Rng.create 99 in
  let model = Hashtbl.create 64 in
  let w0 = Gc.minor_words () in
  for round = 1 to rounds do
    let k = Rng.int rng 64 in
    (match Rng.int rng 3 with
    | 0 ->
        let v = Printf.sprintf "v%d" round in
        Kv.put !kv k v;
        Hashtbl.replace model k v
    | 1 ->
        ignore (Kv.delete !kv k);
        Hashtbl.remove model k
    | _ -> ignore (Kv.get !kv k));
    if crashes && Rng.int rng 40 = 0 then begin
      Engine.crash e;
      Engine.recover e;
      kv := Kv.reattach e
    end
  done;
  let words_per_op = (Gc.minor_words () -. w0) /. float_of_int rounds in
  Engine.drain_backup e;
  let contents =
    Hashtbl.fold (fun k v acc -> Printf.sprintf "%d=%s" k v :: acc) model []
    |> List.sort compare |> String.concat ";"
  in
  (e, !kv, contents, words_per_op)

(* --- Perfetto sink ---------------------------------------------------------- *)

(* No JSON parser in the dependency set, so the shape check is structural:
   the exact envelope [json_of_cell]-style consumers depend on, balanced
   braces/brackets, and one object per recorded event. *)
let test_perfetto_shape () =
  let obs = Obs.create ~capacity:1024 () in
  let e, _, _, _ = run_workload ~obs Engine.Kamino_simple in
  let s = Sink.perfetto_string obs in
  let count c = String.fold_left (fun n ch -> if ch = c then n + 1 else n) 0 s in
  Alcotest.(check bool) "opens with traceEvents" true
    (String.length s > 16 && String.sub s 0 16 = {|{"traceEvents":[|});
  Alcotest.(check int) "braces balance" (count '{') (count '}');
  Alcotest.(check int) "brackets balance" (count '[') (count ']');
  let occurrences needle =
    let nl = String.length needle and sl = String.length s in
    let n = ref 0 in
    for i = 0 to sl - nl do
      if String.sub s i nl = needle then incr n
    done;
    !n
  in
  (* One event object per ring slot, plus one metadata record per named
     track; every record carries a phase tag. *)
  Alcotest.(check int) "every record has a phase"
    (Obs.length obs + List.length (Obs.tracks obs))
    (occurrences {|"ph":|});
  Alcotest.(check int) "thread names cover the tracks"
    (List.length (Obs.tracks obs))
    (occurrences {|"thread_name"|});
  Alcotest.(check bool) "declares the time unit" true
    (occurrences {|"displayTimeUnit":"ns"|} = 1);
  Alcotest.(check bool) "records drop accounting" true (occurrences {|"dropped":|} = 1);
  Alcotest.(check bool) "engine emitted spans" true (occurrences {|"ph":"X"|} > 0);
  ignore e

let test_trace_determinism () =
  let trace () =
    let obs = Obs.create ~capacity:4096 () in
    let _ = run_workload ~obs Engine.Kamino_simple in
    Sink.perfetto_string obs
  in
  let a = trace () and b = trace () in
  Alcotest.(check bool) "byte-identical trace for the same seed" true (a = b);
  Alcotest.(check bool) "trace is non-trivial" true (String.length a > 1000)

(* --- tracing must not perturb the simulation -------------------------------- *)

let engine_fingerprint e =
  let m = Engine.metrics e in
  let c = Engine.main_counters e in
  (Engine.now e, m, c)

let test_differential_ycsb () =
  List.iter
    (fun kind ->
      let plain, _, contents, words = run_workload kind in
      let obs = Obs.create () in
      let traced, _, contents', words' = run_workload ~obs kind in
      Alcotest.(check bool) "tracer saw the run" true (Obs.total obs > 0);
      Alcotest.(check bool) "same simulated time and counters" true
        (engine_fingerprint plain = engine_fingerprint traced);
      Alcotest.(check string) "same committed contents" contents contents';
      (* Emitting into the preallocated ring must not allocate: the traced
         run's op loop allocates exactly what the untraced one does. *)
      Alcotest.(check (float 0.0)) "same minor words per op" words words')
    [
      Engine.Kamino_simple;
      Engine.Kamino_dynamic { alpha = 0.5; policy = Kamino_core.Backup.Lru_policy };
      Engine.Undo_logging;
    ]

let test_differential_crash_recovery () =
  let plain, kv_a, contents, _ = run_workload ~crashes:true Engine.Kamino_simple in
  let obs = Obs.create () in
  let traced, kv_b, contents', _ = run_workload ~obs ~crashes:true Engine.Kamino_simple in
  Alcotest.(check bool) "same simulated time and counters" true
    (engine_fingerprint plain = engine_fingerprint traced);
  Alcotest.(check string) "same surviving contents" contents contents';
  Alcotest.(check bool) "both stores validate" true
    (Kv.validate kv_a = Ok () && Kv.validate kv_b = Ok ())

let test_differential_chaos () =
  List.iter
    (fun mode ->
      let plain = Cchaos.explore (Cchaos.Chain_campaign mode) ~seed:17 () in
      let obs = Obs.create () in
      let traced = Cchaos.explore ~obs (Cchaos.Chain_campaign mode) ~seed:17 () in
      Alcotest.(check bool) "tracer saw the run" true (Obs.total obs > 0);
      (* One fault instant per applied fault, none per skipped one. *)
      let instants = ref 0 in
      Obs.iter obs (fun ~kind ~track:_ ~ts:_ ~dur:_ ~a:_ ~b:_ ~c:_ ->
          if kind = Obs.k_fault then incr instants);
      let applied =
        String.split_on_char '\n' traced.Cchaos.history
        |> List.filter (String.ends_with ~suffix:"-> applied")
        |> List.length
      in
      Alcotest.(check bool) "no trace event dropped" true (Obs.dropped obs = 0);
      Alcotest.(check bool) "some fault applied" true (applied > 0);
      Alcotest.(check int)
        (Cchaos.mode_name mode ^ ": one fault instant per applied fault")
        applied !instants;
      Alcotest.(check string)
        (Cchaos.mode_name mode ^ ": byte-identical history")
        plain.Cchaos.history traced.Cchaos.history;
      Alcotest.(check bool)
        (Cchaos.mode_name mode ^ ": same verdict and event count")
        true
        (plain.Cchaos.verdict = traced.Cchaos.verdict
        && plain.Cchaos.events = traced.Cchaos.events))
    [ Async.Traditional; Async.Kamino_chain { alpha = None } ]

(* --- snapshot-read observability --------------------------------------------- *)

(* The same seeded write workload, with or without interleaved snapshot
   reads on a dedicated reader clock. Both arms draw the identical rng
   sequence (the probe key is drawn unconditionally) so the write paths
   are operation-for-operation the same. *)
let run_snapshot_workload ~reads kind =
  let e = Engine.create ~config ~kind ~seed:11 () in
  let kv = Kv.create e ~value_size:256 ~node_size:512 in
  let rng = Rng.create 99 in
  let reader = Kamino_sim.Clock.create_at 0 in
  (* Prime: propagate the store's creation so every probe is a genuine
     backup hit — a fallback would take the locked path and perturb the
     write-side clock, which is exactly what the A/B test forbids. *)
  Kv.put kv 0 "prime";
  Engine.drain_backup e;
  for round = 1 to 400 do
    let k = Rng.int rng 64 in
    (match Rng.int rng 3 with
    | 0 -> Kv.put kv k (Printf.sprintf "v%d" round)
    | 1 -> ignore (Kv.delete kv k)
    | _ -> ignore (Kv.get kv k));
    if Rng.int rng 5 = 0 then Engine.drain_backup e;
    let probe = Rng.int rng 64 in
    if reads then ignore (Kv.snapshot_get ~clock:reader kv probe)
  done;
  Engine.drain_backup e;
  e

let staleness_fingerprint e =
  let h = Metrics.hist (Engine.registry e) "engine.snapshot_staleness_ns" in
  ( Metrics.count h,
    Metrics.max_value h,
    Metrics.mean h,
    List.map (fun p -> Metrics.percentile h p) [ 50.0; 90.0; 99.0 ] )

let test_staleness_deterministic () =
  let a = run_snapshot_workload ~reads:true Engine.Kamino_simple in
  let b = run_snapshot_workload ~reads:true Engine.Kamino_simple in
  let ma = Engine.metrics a in
  Alcotest.(check bool) "probes hit the backup" true (ma.Engine.snapshot_hits > 0);
  Alcotest.(check int) "primed store never falls back" 0 ma.Engine.snapshot_fallbacks;
  Alcotest.(check bool) "staleness histogram is seed-deterministic" true
    (staleness_fingerprint a = staleness_fingerprint b);
  Alcotest.(check bool) "histogram counts every hit" true
    (let count, _, _, _ = staleness_fingerprint a in
     count = ma.Engine.snapshot_hits)

(* Snapshot reads are invisible to writers: the reads-on arm must show
   zero sim-ns drift and zero main-region NVM-counter drift against the
   reads-off arm (backup-region loads are the only difference, charged to
   the reader's own clock). *)
let test_snapshot_ab_invisible () =
  let off = run_snapshot_workload ~reads:false Engine.Kamino_simple in
  let on_ = run_snapshot_workload ~reads:true Engine.Kamino_simple in
  Alcotest.(check int) "0 sim-ns drift on the write path" (Engine.now off)
    (Engine.now on_);
  (* [main_counters] aggregates every region of the stack, backup
     included, so the reader's own load traffic is visible there — but
     the write side (stores, flushes, fences, copies) must not move by a
     single byte. *)
  (let a = Engine.main_counters off and b = Engine.main_counters on_ in
   let open Kamino_nvm.Region in
   Alcotest.(check bool) "0 write-side NVM counter drift" true
     (a.stores = b.stores
     && a.bytes_stored = b.bytes_stored
     && a.lines_flushed = b.lines_flushed
     && a.fences = b.fences
     && a.bytes_copied = b.bytes_copied);
   Alcotest.(check bool) "reader load traffic lands on the backup" true
     (b.loads > a.loads));
  let mo = Engine.metrics off and mn = Engine.metrics on_ in
  Alcotest.(check int) "same committed" mo.Engine.committed mn.Engine.committed;
  Alcotest.(check int) "same applier tasks" mo.Engine.applier_tasks
    mn.Engine.applier_tasks;
  Alcotest.(check bool) "reads-on arm actually read" true
    (mn.Engine.snapshot_hits > 0 && mo.Engine.snapshot_hits = 0)

(* --- registry wiring --------------------------------------------------------- *)

let test_engine_registry () =
  let e, _, _, _ = run_workload Engine.Kamino_simple in
  let m = Engine.metrics e in
  let reg = Engine.registry e in
  let get name =
    Metrics.fold_counters reg ~init:None ~f:(fun acc n v ->
        if n = name then Some v else acc)
  in
  Alcotest.(check (option int)) "committed" (Some m.Engine.committed)
    (get "engine.committed");
  Alcotest.(check (option int)) "applier tasks" (Some m.Engine.applier_tasks)
    (get "applier.tasks");
  Alcotest.(check (option int)) "storage gauge" (Some m.Engine.storage_bytes)
    (get "storage.bytes");
  let summary = Sink.summary_string reg in
  Alcotest.(check bool) "summary renders counters" true
    (String.length summary > 0
    &&
    let needle = "engine.committed" in
    let nl = String.length needle in
    let rec has i =
      i + nl <= String.length summary
      && (String.sub summary i nl = needle || has (i + 1))
    in
    has 0)

let () =
  Alcotest.run "obs"
    [
      ( "ring",
        [
          Alcotest.test_case "wraparound and drops" `Quick test_ring_wraparound;
          Alcotest.test_case "null tracer" `Quick test_null_tracer;
        ] );
      ( "merge",
        [
          Alcotest.test_case "deterministic (track, ts) order" `Quick
            test_merged_order;
          Alcotest.test_case "4-domain 10k-event burst, nothing lost" `Quick
            test_merged_domain_stress;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_metrics_counters;
          Alcotest.test_case "percentiles" `Quick test_metrics_percentiles;
          Alcotest.test_case "0..63 exact" `Quick test_hist_exact_below_64;
          Alcotest.test_case "observe allocates nothing" `Quick test_hist_observe_no_alloc;
          Alcotest.test_case "negatives and max_int" `Quick test_hist_extremes;
        ] );
      ( "sink",
        [
          Alcotest.test_case "perfetto shape" `Quick test_perfetto_shape;
          Alcotest.test_case "trace determinism" `Quick test_trace_determinism;
        ] );
      ( "differential",
        [
          Alcotest.test_case "ycsb sim-time unchanged" `Quick test_differential_ycsb;
          Alcotest.test_case "crash recovery unchanged" `Quick
            test_differential_crash_recovery;
          Alcotest.test_case "chaos outcome unchanged" `Quick test_differential_chaos;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "staleness histogram deterministic per seed" `Quick
            test_staleness_deterministic;
          Alcotest.test_case "snapshot reads invisible to the write path" `Quick
            test_snapshot_ab_invisible;
        ] );
      ( "registry",
        [ Alcotest.test_case "engine wiring" `Quick test_engine_registry ] );
      ( "qcheck",
        [
          QCheck_alcotest.to_alcotest test_hist_error_bound;
          QCheck_alcotest.to_alcotest test_hist_merge;
        ] );
    ]
