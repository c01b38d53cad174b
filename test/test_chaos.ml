(* Tests for the chaos schedule explorer: the bounded exploration budget,
   deterministic replay, the oracle self-test (a deliberately broken
   recovery must be caught and shrunk), the §5.2 promotion-window crash,
   stale-probe rejection, and schedule serialization. *)

module Engine = Kamino_core.Engine
module Op = Kamino_chain.Op
module Async = Kamino_chain.Async_chain
module Chaos = Kamino_chaos.Chaos

(* --- bounded exploration --------------------------------------------------- *)

(* The tier-1 budget: ≥500 distinct fault schedules across both chain
   modes, every run green under both oracles. *)
let test_bounded_sweep () =
  let seen = Hashtbl.create 1024 in
  let explored = ref 0 in
  List.iter
    (fun mode ->
      for seed = 1 to 250 do
        let o = Chaos.explore ~mode ~seed () in
        (match o.Chaos.verdict with
        | Ok () -> ()
        | Error e ->
            Alcotest.failf "mode %s seed %d failed: %s\n%s" (Chaos.mode_name mode) seed e
              o.Chaos.history);
        incr explored;
        Hashtbl.replace seen
          (Chaos.mode_name mode ^ "\n" ^ Chaos.schedule_to_string o.Chaos.schedule)
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
      let a = Chaos.explore ~mode ~seed:17 () in
      let b = Chaos.explore ~mode ~seed:17 () in
      Alcotest.(check string)
        (Chaos.mode_name mode ^ ": byte-identical history")
        a.Chaos.history b.Chaos.history;
      Alcotest.(check bool)
        (Chaos.mode_name mode ^ ": same verdict")
        true
        (a.Chaos.verdict = b.Chaos.verdict);
      (* Replaying the recorded schedule through [run] reproduces the
         faulted half of the explore exactly. *)
      let c =
        Chaos.run ~mode ~seed:17 ~ops:a.Chaos.ops ~schedule:a.Chaos.schedule ()
      in
      Alcotest.(check string)
        (Chaos.mode_name mode ^ ": replay from schedule")
        a.Chaos.history c.Chaos.history)
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
    let o = Chaos.explore ~recovery_fault ~mode ~seed:!seed () in
    (match o.Chaos.verdict with
    | Error _ -> failing := Some o
    | Ok () -> ());
    incr seed
  done;
  match !failing with
  | None -> Alcotest.fail "broken recovery never caught in 60 seeds"
  | Some o ->
      (match o.Chaos.verdict with
      | Error e ->
          Alcotest.(check bool)
            ("durable-prefix oracle named: " ^ e)
            true
            (String.length e >= 14 && String.sub e 0 14 = "durable-prefix")
      | Ok () -> assert false);
      let shrunk =
        Chaos.shrink ~recovery_fault ~mode ~seed:o.Chaos.seed ~ops:o.Chaos.ops
          o.Chaos.schedule
      in
      Alcotest.(check bool)
        (Printf.sprintf "shrunk to %d fault(s) (want <= 5)" (List.length shrunk))
        true
        (List.length shrunk <= 5);
      let replay =
        Chaos.run ~recovery_fault ~mode ~seed:o.Chaos.seed ~ops:o.Chaos.ops
          ~schedule:shrunk ()
      in
      Alcotest.(check bool) "shrunk schedule still fails" true (replay.Chaos.verdict <> Ok ());
      (* The same shrunk schedule under a correct recovery passes: the
         fault is in the mutated protocol, not in the oracle. *)
      let healthy =
        Chaos.run ~mode ~seed:o.Chaos.seed ~ops:o.Chaos.ops ~schedule:shrunk ()
      in
      Alcotest.(check bool) "correct recovery passes the same schedule" true
        (healthy.Chaos.verdict = Ok ())

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

let test_schedule_roundtrip () =
  let schedule = Chaos.gen_schedule ~seed:9 ~faults:12 ~nodes:4 ~events:300 in
  Alcotest.(check int) "drew the requested faults" 12 (List.length schedule);
  (match Chaos.schedule_of_string (Chaos.schedule_to_string schedule) with
  | Ok parsed ->
      Alcotest.(check bool) "roundtrip preserves the schedule" true (parsed = schedule)
  | Error e -> Alcotest.failf "roundtrip failed to parse: %s" e);
  (* Comments and blank lines are tolerated; junk is rejected with a line
     number. *)
  (match Chaos.schedule_of_string "# header\n\nreboot node=1 at-event=5 downtime-ns=0\n" with
  | Ok [ Chaos.Reboot { node = 1; at_event = 5; downtime_ns = 0 } ] -> ()
  | Ok _ -> Alcotest.fail "parsed into the wrong schedule"
  | Error e -> Alcotest.failf "failed to parse commented schedule: %s" e);
  match Chaos.schedule_of_string "reboot node=1\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a schedule missing fields"

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
