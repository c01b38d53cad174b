(* Tests for the chaos schedule explorer: the bounded exploration budget,
   deterministic replay, the oracle self-test (a deliberately broken
   recovery must be caught and shrunk), the §5.2 promotion-window crash,
   stale-probe rejection, and schedule serialization. *)

module Engine = Kamino_core.Engine
module Op = Kamino_chain.Op
module Async = Kamino_chain.Async_chain
module Cchaos = Kamino_chaos.Cluster_chaos

(* --- bounded exploration --------------------------------------------------- *)

(* The tier-1 budget: ≥500 distinct fault schedules across both chain
   modes, every run green under both oracles. *)
let test_bounded_sweep () =
  let seen = Hashtbl.create 1024 in
  let explored = ref 0 in
  List.iter
    (fun mode ->
      for seed = 1 to 250 do
        let o = Cchaos.explore (Cchaos.Chain_campaign mode) ~seed () in
        (match o.Cchaos.verdict with
        | Ok () -> ()
        | Error e ->
            Alcotest.failf "mode %s seed %d failed: %s\n%s" (Cchaos.mode_name mode) seed e
              o.Cchaos.history);
        incr explored;
        Hashtbl.replace seen
          (Cchaos.mode_name mode ^ "\n" ^ Cchaos.schedule_to_string o.Cchaos.schedule)
          ()
      done)
    [ Async.Traditional; Async.Kamino_chain { alpha = None } ];
  Alcotest.(check bool)
    (Printf.sprintf "explored %d runs, %d distinct schedules (want >= 500)" !explored
       (Hashtbl.length seen))
    true
    (Hashtbl.length seen >= 500)

let test_deterministic_replay () =
  List.iter
    (fun mode ->
      let a = Cchaos.explore (Cchaos.Chain_campaign mode) ~seed:17 () in
      let b = Cchaos.explore (Cchaos.Chain_campaign mode) ~seed:17 () in
      Alcotest.(check string)
        (Cchaos.mode_name mode ^ ": byte-identical history")
        a.Cchaos.history b.Cchaos.history;
      Alcotest.(check bool)
        (Cchaos.mode_name mode ^ ": same verdict")
        true
        (a.Cchaos.verdict = b.Cchaos.verdict);
      (* Replaying the recorded schedule through [run] reproduces the
         faulted half of the explore exactly. *)
      let c =
        Cchaos.run (Cchaos.Chain_campaign mode) ~seed:17 ~ops:a.Cchaos.ops ~schedule:a.Cchaos.schedule ()
      in
      Alcotest.(check string)
        (Cchaos.mode_name mode ^ ": replay from schedule")
        a.Cchaos.history c.Cchaos.history)
    [ Async.Traditional; Async.Kamino_chain { alpha = None } ]

(* --- oracle self-test ------------------------------------------------------ *)

(* A harness is only as good as the bugs it can catch: under a recovery
   that forgets the in-flight window on reboot, some schedule must fail
   the durable-prefix oracle, and the failure must shrink to a handful of
   faults that still reproduce it. *)
let test_broken_recovery_caught () =
  let recovery_fault = Async.Drop_inflight_on_reboot in
  let mode = Async.Kamino_chain { alpha = None } in
  let failing = ref None in
  let seed = ref 1 in
  while !failing = None && !seed <= 60 do
    let o = Cchaos.explore ~recovery_fault (Cchaos.Chain_campaign mode) ~seed:!seed () in
    (match o.Cchaos.verdict with
    | Error _ -> failing := Some o
    | Ok () -> ());
    incr seed
  done;
  match !failing with
  | None -> Alcotest.fail "broken recovery never caught in 60 seeds"
  | Some o ->
      (* The chain campaign is shard 0 of a 1-shard cluster. *)
      let prefix = "shard 0: durable-prefix" in
      (match o.Cchaos.verdict with
      | Error e ->
          Alcotest.(check bool)
            ("durable-prefix oracle named: " ^ e)
            true
            (String.starts_with ~prefix e)
      | Ok () -> assert false);
      let shrunk =
        Cchaos.shrink ~recovery_fault (Cchaos.Chain_campaign mode) ~seed:o.Cchaos.seed ~ops:o.Cchaos.ops
          o.Cchaos.schedule
      in
      Alcotest.(check bool)
        (Printf.sprintf "shrunk to %d fault(s) (want <= 5)" (List.length shrunk))
        true
        (List.length shrunk <= 5);
      let replay =
        Cchaos.run ~recovery_fault (Cchaos.Chain_campaign mode) ~seed:o.Cchaos.seed ~ops:o.Cchaos.ops
          ~schedule:shrunk ()
      in
      Alcotest.(check bool) "shrunk schedule still fails" true (replay.Cchaos.verdict <> Ok ());
      (* The same shrunk schedule under a correct recovery passes: the
         fault is in the mutated protocol, not in the oracle. *)
      let healthy =
        Cchaos.run (Cchaos.Chain_campaign mode) ~seed:o.Cchaos.seed ~ops:o.Cchaos.ops ~schedule:shrunk ()
      in
      Alcotest.(check bool) "correct recovery passes the same schedule" true
        (healthy.Cchaos.verdict = Ok ())

(* --- §5.2: crash during head promotion ------------------------------------- *)

(* Fail-stop the Kamino head, then quick-reboot the new head while its
   backup build is still pending. The promotion must survive the crash
   (the build re-fires), and the chain must converge consistently. *)
let test_crash_during_promotion () =
  let c =
    Async.create
      ~engine_config:{ Engine.default_config with Engine.heap_bytes = 1 lsl 18 }
      ~hop_ns:5000 ~rpc_ns:500 ~promote_ns:40_000
      ~mode:(Async.Kamino_chain { alpha = None })
      ~f:2 ~value_size:64 ~node_size:512 ~seed:3 ()
  in
  let acked = ref 0 in
  for k = 0 to 19 do
    Async.submit c ~at:(k * 2_000)
      (Op.Put (k mod 5, Printf.sprintf "v%d" k))
      ~on_complete:(fun _ -> incr acked)
  done;
  let t_fail = 15_000 in
  Async.fail_stop c ~at:t_fail 0;
  (* Land the reboot squarely inside the promotion window. *)
  Async.quick_reboot c ~at:(t_fail + 20_000) ~downtime_ns:3_000 1;
  ignore (Async.run c);
  Alcotest.(check (list int)) "survivors" [ 1; 2; 3 ] (Async.members c);
  Alcotest.(check bool) "promotion completed" true (Async.promotion_pending c = None);
  Alcotest.(check bool) "new head has a local backup" true
    (Engine.kind (Async.engine_at c 1) = Engine.Kamino_simple);
  (match Engine.verify_backup (Async.engine_at c 1) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "new head backup diverged: %s" e);
  (match Async.replicas_consistent c with
  | Ok () -> ()
  | Error e -> Alcotest.failf "replicas diverged: %s" e);
  (* Writes the old head executed but had not yet forwarded die with it,
     unacknowledged — only the ones that reached the survivors complete. *)
  Alcotest.(check bool)
    (Printf.sprintf "surviving writes acknowledged (%d/20)" !acked)
    true (!acked >= 10);
  (* Every survivor applied the same op set. *)
  let head_applied = Async.applied_seqs c 1 in
  List.iter
    (fun m ->
      Alcotest.(check (list int))
        (Printf.sprintf "replica %d applied set" m)
        head_applied (Async.applied_seqs c m))
    (Async.members c)

(* --- stale-view probes ----------------------------------------------------- *)

let test_stale_probe_dropped () =
  let c =
    Async.create
      ~engine_config:{ Engine.default_config with Engine.heap_bytes = 1 lsl 18 }
      ~hop_ns:5000 ~rpc_ns:500
      ~mode:(Async.Kamino_chain { alpha = None })
      ~f:2 ~value_size:64 ~node_size:512 ~seed:5 ()
  in
  Async.submit c ~at:1_000 (Op.Put (0, "legit")) ~on_complete:(fun _ -> ());
  Async.inject_stale_probe c ~at:4_000 2;
  ignore (Async.run c);
  Alcotest.(check bool) "probe counted as a stale drop" true (Async.stale_drops c >= 1);
  List.iter
    (fun m ->
      Alcotest.(check (option string))
        (Printf.sprintf "replica %d unaffected" m)
        (Some "legit")
        (Kamino_kv.Kv.get (Async.kv_at c m) 0))
    (Async.members c);
  match Async.replicas_consistent c with
  | Ok () -> ()
  | Error e -> Alcotest.failf "replicas diverged: %s" e

(* --- schedule serialization ------------------------------------------------ *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn > 0 && go 0

let test_schedule_roundtrip () =
  let kamino = Cchaos.Chain_campaign (Async.Kamino_chain { alpha = None }) in
  let schedule = Cchaos.gen_schedule kamino ~seed:9 ~faults:12 ~events:300 ~multis:0 in
  Alcotest.(check int) "drew the requested faults" 12 (List.length schedule);
  (match Cchaos.schedule_of_string (Cchaos.schedule_to_string schedule) with
  | Ok parsed ->
      Alcotest.(check bool) "roundtrip preserves the schedule" true (parsed = schedule)
  | Error e -> Alcotest.failf "roundtrip failed to parse: %s" e);
  (* Comments and blank lines are tolerated; a line without [shard=] (the
     single-chain format) addresses shard 0; junk is rejected with a line
     number. *)
  (match Cchaos.schedule_of_string "# header\n\nreboot node=1 at-event=5 downtime-ns=0\n" with
  | Ok [ Cchaos.Reboot { shard = 0; node = 1; at_event = 5; downtime_ns = 0 } ] -> ()
  | Ok _ -> Alcotest.fail "parsed into the wrong schedule"
  | Error e -> Alcotest.failf "failed to parse commented schedule: %s" e);
  (match Cchaos.schedule_of_string "reboot node=1\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a schedule missing fields");
  (* A negative downtime used to reach [Clock.advance] and crash the run. *)
  (match
     Cchaos.schedule_of_string
       "fail-stop node=2 at-event=9\nreboot node=1 at-event=40 downtime-ns=-50000\n"
   with
  | Error e ->
      Alcotest.(check bool) ("line-numbered rejection: " ^ e) true
        (String.starts_with ~prefix:"line 2: " e)
  | Ok _ -> Alcotest.fail "accepted a negative downtime");
  (* A shard the campaign does not have is a deterministic skip. *)
  match Cchaos.schedule_of_string "reboot shard=1 node=0 at-event=5 downtime-ns=0\n" with
  | Error e -> Alcotest.failf "failed to parse a shard-addressed fault: %s" e
  | Ok schedule ->
      let faulted = Cchaos.run kamino ~seed:3 ~ops:12 ~schedule () in
      let clean = Cchaos.run kamino ~seed:3 ~ops:12 ~schedule:[] () in
      Alcotest.(check bool) "out-of-range shard skipped" true
        (contains faulted.Cchaos.history
           "reboot shard=1 node=0 at-event=5 downtime-ns=0 -> skipped");
      Alcotest.(check bool) "skipped fault passes" true (faulted.Cchaos.verdict = Ok ());
      Alcotest.(check int) "skipped fault leaves the run alone" clean.Cchaos.events
        faulted.Cchaos.events

let () =
  Alcotest.run "chaos"
    [
      ( "explorer",
        [
          Alcotest.test_case "bounded sweep: 500 distinct schedules, both modes" `Slow
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
          Alcotest.test_case "crash during head promotion" `Quick
            test_crash_during_promotion;
          Alcotest.test_case "stale probe dropped" `Quick test_stale_probe_dropped;
        ] );
      ( "serialization",
        [ Alcotest.test_case "schedule roundtrip" `Quick test_schedule_roundtrip ] );
    ]
