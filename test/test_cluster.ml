(* Tests for the replicated shard-cluster: the bounded cluster-chaos
   sweep (>= 500 seeded schedules with targeted 2PC faults), deterministic
   replay, the oracle self-test (a deliberately broken recovery must be
   caught and shrunk), cross-shard multi_put protocol units — atomicity,
   head fail-stop between prepare and marker persist, prepare retry
   against a mid-promotion head — and the cluster latency percentiles. *)

module Sim = Kamino_sim.Engine
module Engine = Kamino_core.Engine
module Metrics = Kamino_obs.Metrics
module Op = Kamino_chain.Op
module Async = Kamino_chain.Async_chain
module Cluster = Kamino_cluster.Cluster
module Cluster_kv = Kamino_cluster.Cluster_kv
module Cchaos = Kamino_chaos.Cluster_chaos

let test_config =
  {
    Engine.default_config with
    Engine.heap_bytes = 1 lsl 18;
    log_slots = 64;
    data_log_bytes = 1 lsl 16;
  }

let make_cluster ?(seed = 7) () =
  Cluster.create ~engine_config:test_config ~hop_ns:5000 ~rpc_ns:500
    ~promote_ns:40_000 ~retry_ns:10_000 ~shards:3 ~f:1 ~value_size:64
    ~node_size:512 ~seed ()

(* Two keys owned by different shard-chains, found by the router itself so
   the test tracks any routing change. *)
let cross_shard_keys c =
  let k0 = 0 in
  let s0 = Cluster.route c k0 in
  let rec hunt k =
    if Cluster.route c k <> s0 then k
    else if k > 4096 then Alcotest.fail "router maps every probe to one shard"
    else hunt (k + 1)
  in
  (k0, hunt 1)

(* --- bounded exploration --------------------------------------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn > 0 && go 0

(* The acceptance budget: >= 500 distinct seeded schedules over the
   3-shard cluster, every run green under the durable-prefix, atomicity,
   linearizability and quiescence oracles — and the sweep must actually
   exercise the targeted 2PC faults, including head promotion injected
   between prepare and commit-marker persist. *)
let test_bounded_sweep () =
  let seen = Hashtbl.create 1024 in
  let prepare_fired = ref 0 and marker_fired = ref 0 in
  for seed = 1 to 500 do
    let o = Cchaos.explore Cchaos.Cluster_campaign ~seed () in
    (match o.Cchaos.verdict with
    | Ok () -> ()
    | Error e -> Alcotest.failf "seed %d failed: %s\n%s" seed e o.Cchaos.history);
    Hashtbl.replace seen (Cchaos.schedule_to_string o.Cchaos.schedule) ();
    if contains o.Cchaos.history "prepare-head-fail" && contains o.Cchaos.history "(head fail-stopped)"
    then incr prepare_fired;
    if contains o.Cchaos.history "marker-head-fail" && contains o.Cchaos.history "(head fail-stopped)"
    then incr marker_fired
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d distinct schedules (want >= 500)" (Hashtbl.length seen))
    true
    (Hashtbl.length seen >= 500);
  Alcotest.(check bool)
    (Printf.sprintf "prepare-window head fail-stops fired in %d runs" !prepare_fired)
    true (!prepare_fired >= 20);
  Alcotest.(check bool)
    (Printf.sprintf "marker-window head fail-stops fired in %d runs" !marker_fired)
    true (!marker_fired >= 10)

let test_deterministic_replay () =
  let a = Cchaos.explore Cchaos.Cluster_campaign ~seed:23 () in
  let b = Cchaos.explore Cchaos.Cluster_campaign ~seed:23 () in
  Alcotest.(check string) "byte-identical history" a.Cchaos.history b.Cchaos.history;
  Alcotest.(check string) "identical fingerprint"
    (Lazy.force a.Cchaos.fingerprint)
    (Lazy.force b.Cchaos.fingerprint);
  let c =
    Cchaos.run Cchaos.Cluster_campaign ~seed:23 ~ops:a.Cchaos.ops ~schedule:a.Cchaos.schedule ()
  in
  Alcotest.(check string) "replay from recorded schedule" a.Cchaos.history
    c.Cchaos.history;
  Alcotest.(check string) "replay reproduces the fingerprint"
    (Lazy.force a.Cchaos.fingerprint)
    (Lazy.force c.Cchaos.fingerprint)

(* --- oracle self-test ------------------------------------------------------ *)

(* Under a recovery that forgets the in-flight window on reboot, some
   schedule must fail an oracle, and the failure must shrink to a handful
   of faults that still reproduce it — while a correct recovery passes
   the same shrunk schedule. *)
let test_broken_recovery_caught () =
  let recovery_fault = Async.Drop_inflight_on_reboot in
  let failing = ref None in
  let seed = ref 1 in
  (* Denser than the sweep default: the broken recovery only bites when a
     reboot drops a node's in-flight window and a later repair on the same
     shard needs it. *)
  while !failing = None && !seed <= 60 do
    let o = Cchaos.explore ~recovery_fault ~ops:40 ~faults:12 Cchaos.Cluster_campaign ~seed:!seed () in
    (match o.Cchaos.verdict with
    | Error _ -> failing := Some o
    | Ok () -> ());
    incr seed
  done;
  match !failing with
  | None -> Alcotest.fail "broken recovery never caught in 60 seeds"
  | Some o ->
      let shrunk =
        Cchaos.shrink ~recovery_fault Cchaos.Cluster_campaign ~seed:o.Cchaos.seed ~ops:o.Cchaos.ops
          o.Cchaos.schedule
      in
      Alcotest.(check bool)
        (Printf.sprintf "shrunk to %d fault(s) (want <= 5)" (List.length shrunk))
        true
        (List.length shrunk <= 5);
      let replay =
        Cchaos.run ~recovery_fault Cchaos.Cluster_campaign ~seed:o.Cchaos.seed ~ops:o.Cchaos.ops
          ~schedule:shrunk ()
      in
      Alcotest.(check bool) "shrunk schedule still fails" true
        (replay.Cchaos.verdict <> Ok ());
      let healthy =
        Cchaos.run Cchaos.Cluster_campaign ~seed:o.Cchaos.seed ~ops:o.Cchaos.ops ~schedule:shrunk ()
      in
      Alcotest.(check bool) "correct recovery passes the same schedule" true
        (healthy.Cchaos.verdict = Ok ())

(* --- protocol units --------------------------------------------------------- *)

(* A cross-shard multi_put commits atomically and the values land on every
   participant chain, visible through the synchronous client. *)
let test_multi_put_atomic () =
  let c = make_cluster () in
  let kv = Cluster_kv.create c in
  let ka, kb = cross_shard_keys c in
  Cluster_kv.put kv ka "old-a";
  Cluster_kv.multi_put kv [ (ka, "new-a"); (kb, "new-b") ];
  Alcotest.(check (option string)) "key a" (Some "new-a") (Cluster_kv.get kv ka);
  Alcotest.(check (option string)) "key b" (Some "new-b") (Cluster_kv.get kv kb);
  Alcotest.(check int) "one cross-chain transaction" 1 (Cluster.crossed c);
  (match Cluster.verify c with
  | Ok () -> ()
  | Error e -> Alcotest.failf "cluster verify: %s" e);
  (* A single-shard multi_put bypasses the marker entirely. *)
  Cluster_kv.multi_put kv [ (ka, "solo") ];
  Alcotest.(check (option string)) "single-shard batch" (Some "solo")
    (Cluster_kv.get kv ka);
  Alcotest.(check int) "still one cross-chain transaction" 1 (Cluster.crossed c)

(* The 2PC phases fan out: a fault-free multi_put over all three shards
   prepares every participant at one instant and commits every participant
   at one instant. The marker follows the prepares by exactly one RPC
   delay, the commits follow the marker by one more and the clear follows
   the commits by one more. *)
let test_phases_fan_out () =
  let c = make_cluster ~seed:23 () in
  let rec key_on s k = if Cluster.route c k = s then k else key_on s (k + 1) in
  let bindings = List.init 3 (fun s -> (key_on s 0, Printf.sprintf "v%d" s)) in
  let steps = ref [] in
  Cluster.multi_put c ~at:1_000
    ~on_step:(fun step -> steps := (step, Sim.now (Cluster.sim c)) :: !steps)
    bindings ~on_complete:(fun _ -> ());
  ignore (Cluster.run c);
  let times f = List.rev (List.filter_map (fun (step, at) -> if f step then Some at else None) !steps) in
  let prepared = times (function Cluster.Prepared _ -> true | _ -> false)
  and committed = times (function Cluster.Committed _ -> true | _ -> false)
  and marker = times (( = ) Cluster.Marker_written)
  and cleared = times (( = ) Cluster.Marker_cleared) in
  Alcotest.(check (list int)) "prepares at one instant" [ 1_000; 1_000; 1_000 ] prepared;
  Alcotest.(check (list int)) "marker one rpc later" [ 1_500 ] marker;
  Alcotest.(check (list int)) "commits at one instant" [ 2_000; 2_000; 2_000 ] committed;
  Alcotest.(check (list int)) "clear one rpc later" [ 2_500 ] cleared;
  Alcotest.(check (list int)) "ascending shard order within an instant" [ 0; 1; 2; 0; 1; 2 ]
    (List.rev
       (List.filter_map
          (fun (step, _) ->
            match step with Cluster.Prepared s | Cluster.Committed s -> Some s | _ -> None)
          !steps));
  match Cluster.verify c with
  | Ok () -> ()
  | Error e -> Alcotest.failf "cluster verify: %s" e

(* Fail-stop a participant's head between its prepare and the marker
   persist: the coordinator must re-prepare through the promoted head
   (same chain sequence) and the transaction must still commit on every
   participant. This is the §5.2 promotion window crossed with §5.3's
   distributed commit. *)
let test_head_fail_between_prepare_and_marker () =
  let c = make_cluster ~seed:11 () in
  let ka, kb = cross_shard_keys c in
  let sa = Cluster.route c ka in
  let acked = ref false and re_prepared_head = ref (-1) in
  Cluster.multi_put c ~at:1_000
    ~on_step:(fun step ->
      match step with
      | Cluster.Prepared s when s = sa && !re_prepared_head < 0 ->
          let ch = Cluster.chain c sa in
          (* Kill the head that just prepared; the prepared transaction
             dies with it. *)
          Async.fail_stop_now ch (Async.head_id ch);
          re_prepared_head := Async.head_id ch
      | _ -> ())
    [ (ka, "va"); (kb, "vb") ]
    ~on_complete:(fun _ -> acked := true);
  ignore (Cluster.run c);
  Alcotest.(check bool) "the fault actually fired" true (!re_prepared_head >= 0);
  Alcotest.(check bool) "multi_put acknowledged despite the head fail-stop" true
    !acked;
  Alcotest.(check bool) "a re-prepare happened" true
    (Metrics.value (Metrics.counter (Cluster.registry c) "cluster.re_prepares") >= 1);
  let kv = Cluster_kv.create c in
  Alcotest.(check (option string)) "key a committed" (Some "va")
    (Cluster_kv.get kv ka);
  Alcotest.(check (option string)) "key b committed" (Some "vb")
    (Cluster_kv.get kv kb);
  match Cluster.verify c with
  | Ok () -> ()
  | Error e -> Alcotest.failf "cluster verify: %s" e

(* Fail-stop a participant's head the moment the commit marker persists:
   the decision is durable, so the view-change re-drive must push the
   committed operation through the promoted head. *)
let test_head_fail_after_marker () =
  let c = make_cluster ~seed:13 () in
  let ka, kb = cross_shard_keys c in
  let sa = Cluster.route c ka in
  let acked = ref false and fired = ref false in
  Cluster.multi_put c ~at:1_000
    ~on_step:(fun step ->
      match step with
      | Cluster.Marker_written when not !fired ->
          fired := true;
          let ch = Cluster.chain c sa in
          Async.fail_stop_now ch (Async.head_id ch)
      | _ -> ())
    [ (ka, "va"); (kb, "vb") ]
    ~on_complete:(fun _ -> acked := true);
  ignore (Cluster.run c);
  Alcotest.(check bool) "the fault actually fired" true !fired;
  Alcotest.(check bool) "multi_put acknowledged" true !acked;
  let kv = Cluster_kv.create c in
  Alcotest.(check (option string)) "key a committed" (Some "va")
    (Cluster_kv.get kv ka);
  Alcotest.(check (option string)) "key b committed" (Some "vb")
    (Cluster_kv.get kv kb);
  match Cluster.verify c with
  | Ok () -> ()
  | Error e -> Alcotest.failf "cluster verify: %s" e

(* A head mid-promotion runs Intent_only and cannot prepare; the
   coordinator must back off and retry until the promotion completes. *)
let test_prepare_retries_mid_promotion () =
  let c = make_cluster ~seed:17 () in
  let ka, kb = cross_shard_keys c in
  let sa = Cluster.route c ka in
  let ch = Cluster.chain c sa in
  (* Promotion takes promote_ns = 40us; land the multi_put right inside
     the window. *)
  Async.fail_stop ch ~at:500 (Async.head_id ch);
  let acked = ref false in
  Cluster.multi_put c ~at:2_000 [ (ka, "va"); (kb, "vb") ] ~on_complete:(fun _ ->
      acked := true);
  ignore (Cluster.run c);
  Alcotest.(check bool) "multi_put acknowledged after the promotion" true !acked;
  Alcotest.(check bool) "the coordinator retried the prepare" true
    (Metrics.value (Metrics.counter (Cluster.registry c) "cluster.prepare_retries")
    >= 1);
  let kv = Cluster_kv.create c in
  Alcotest.(check (option string)) "key a committed" (Some "va")
    (Cluster_kv.get kv ka);
  Alcotest.(check (option string)) "key b committed" (Some "vb")
    (Cluster_kv.get kv kb);
  match Cluster.verify c with
  | Ok () -> ()
  | Error e -> Alcotest.failf "cluster verify: %s" e

(* While a prepared cluster transaction wedges the head, later single-key
   submissions are deferred, and they drain in order once the decision
   lands — the exactly-once seq guard is monotone, so reordering would
   lose writes downstream. *)
let test_deferred_during_cluster_hold () =
  let c = make_cluster ~seed:19 () in
  let ka, kb = cross_shard_keys c in
  let sa = Cluster.route c ka in
  let deferred_seen = ref (-1) in
  Cluster.multi_put c ~at:1_000
    ~on_step:(fun step ->
      match step with
      | Cluster.Prepared s when s = sa ->
          (* The chain is wedged now; push a write at it. *)
          Cluster.submit c ~at:(Sim.now (Cluster.sim c) + 1) (Op.Put (ka, "later"))
            ~on_complete:(fun _ -> ());
          deferred_seen := Async.deferred_count (Cluster.chain c sa)
      | _ -> ())
    [ (ka, "va"); (kb, "vb") ]
    ~on_complete:(fun _ -> ());
  ignore (Cluster.run c);
  let kv = Cluster_kv.create c in
  Alcotest.(check (option string)) "deferred write applied last" (Some "later")
    (Cluster_kv.get kv ka);
  match Cluster.verify c with
  | Ok () -> ()
  | Error e -> Alcotest.failf "cluster verify: %s" e

(* --- observability ---------------------------------------------------------- *)

let test_latency_percentiles () =
  let c = make_cluster ~seed:29 () in
  let kv = Cluster_kv.create c in
  for i = 0 to 39 do
    Cluster_kv.put kv (i mod 8) (Printf.sprintf "v%d" i)
  done;
  let ka, kb = cross_shard_keys c in
  for i = 0 to 9 do
    Cluster_kv.multi_put kv
      [ (ka, Printf.sprintf "ma%d" i); (kb, Printf.sprintf "mb%d" i) ]
  done;
  let h = Metrics.hist (Cluster.registry c) "cluster.commit_ns" in
  let ps = Metrics.percentiles h [| 50.; 95.; 99. |] in
  Alcotest.(check bool) "p50 > 0" true (ps.(0) > 0);
  Alcotest.(check bool) "p50 <= p95 <= p99" true (ps.(0) <= ps.(1) && ps.(1) <= ps.(2));
  let xh = Metrics.hist (Cluster.registry c) "cluster.cross_commit_ns" in
  Alcotest.(check int) "every multi_put crossed chains" 10 (Metrics.count xh);
  Alcotest.(check bool) "cross-chain p50 > 0" true (Metrics.percentile xh 50. > 0)

(* --- serialization ---------------------------------------------------------- *)

let test_schedule_roundtrip () =
  let workload = Cchaos.gen_workload Cchaos.Cluster_campaign ~seed:31 ~ops:40 in
  let multis = Cchaos.count_multis workload in
  Alcotest.(check bool) "workload draws multi_puts" true (multis >= 3);
  let schedule =
    Cchaos.gen_schedule Cchaos.Cluster_campaign ~seed:31 ~faults:14 ~events:400 ~multis
  in
  Alcotest.(check int) "drew the requested faults" 14 (List.length schedule);
  (match Cchaos.schedule_of_string (Cchaos.schedule_to_string schedule) with
  | Ok parsed ->
      Alcotest.(check bool) "roundtrip preserves the schedule" true
        (parsed = schedule)
  | Error e -> Alcotest.failf "roundtrip failed to parse: %s" e);
  (match
     Cchaos.schedule_of_string
       "# header\n\nprepare-head-fail cross=2 shard=1\nfail-stop shard=0 node=2 at-event=9\n"
   with
  | Ok
      [
        Cchaos.Prepare_head_fail { cross = 2; shard = 1 };
        Cchaos.Fail_stop { shard = 0; node = 2; at_event = 9 };
      ] ->
      ()
  | Ok _ -> Alcotest.fail "parsed into the wrong schedule"
  | Error e -> Alcotest.failf "failed to parse commented schedule: %s" e);
  (match Cchaos.schedule_of_string "marker-head-fail cross=1\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a schedule missing fields");
  (* Negative values used to crash a run (an array index, [Clock.advance]);
     the parser rejects them with the line number. *)
  List.iter
    (fun line ->
      match Cchaos.schedule_of_string ("# bad\n" ^ line ^ "\n") with
      | Error e ->
          Alcotest.(check bool) ("line-numbered rejection: " ^ e) true
            (String.starts_with ~prefix:"line 2: " e)
      | Ok _ -> Alcotest.failf "accepted %S" line)
    [
      "reboot shard=-1 node=0 at-event=5 downtime-ns=0";
      "reboot shard=0 node=1 at-event=40 downtime-ns=-50000";
    ];
  (* A shard at or above the campaign's count is a deterministic skip. *)
  match Cchaos.schedule_of_string "reboot shard=3 node=0 at-event=5 downtime-ns=0\n" with
  | Error e -> Alcotest.failf "failed to parse a shard-addressed fault: %s" e
  | Ok schedule ->
      let o = Cchaos.run Cchaos.Cluster_campaign ~seed:31 ~ops:20 ~schedule () in
      Alcotest.(check bool) "out-of-range shard skipped" true
        (contains o.Cchaos.history
           "reboot shard=3 node=0 at-event=5 downtime-ns=0 -> skipped");
      Alcotest.(check bool) "skipped fault passes" true (o.Cchaos.verdict = Ok ())

let () =
  Alcotest.run "cluster"
    [
      ( "explorer",
        [
          Alcotest.test_case
            "bounded sweep: 500 schedules incl. targeted 2PC faults" `Slow
            test_bounded_sweep;
          Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "broken recovery caught and shrunk" `Quick
            test_broken_recovery_caught;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "cross-shard multi_put is atomic" `Quick
            test_multi_put_atomic;
          Alcotest.test_case "head fail-stop between prepare and marker" `Quick
            test_head_fail_between_prepare_and_marker;
          Alcotest.test_case "head fail-stop after marker persist" `Quick
            test_head_fail_after_marker;
          Alcotest.test_case "prepare retries against a mid-promotion head" `Quick
            test_prepare_retries_mid_promotion;
          Alcotest.test_case "writes defer while the head is wedged" `Quick
            test_deferred_during_cluster_hold;
          Alcotest.test_case "2PC phases fan out" `Quick test_phases_fan_out;
        ] );
      ( "observability",
        [
          Alcotest.test_case "cluster latency percentiles" `Quick
            test_latency_percentiles;
        ] );
      ( "serialization",
        [ Alcotest.test_case "schedule roundtrip" `Quick test_schedule_roundtrip ] );
    ]
