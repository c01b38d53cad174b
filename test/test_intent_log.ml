(* Tests for the intent log (Log Manager): slot lifecycle, barrier
   semantics, recovery scanning, and torn-record defence. *)

module Rng = Kamino_sim.Rng
module Clock = Kamino_sim.Clock
module Region = Kamino_nvm.Region
module Ilog = Kamino_core.Intent_log

let make ?(crash_mode = Region.Words_survive_randomly) ?(seed = 1) ?(n_slots = 8) () =
  let clock = Clock.create () in
  let size = Ilog.required_size ~max_user_threads:4 ~max_tx_entries:16 ~n_slots in
  let r = Region.create ~crash_mode ~rng:(Rng.create seed) ~clock ~size () in
  (Ilog.format r ~max_user_threads:4 ~max_tx_entries:16 ~n_slots, r)

let intent off len = { Ilog.off; len }

let test_slot_lifecycle () =
  let log, _ = make () in
  Alcotest.(check int) "all free" 8 (Ilog.free_slots log);
  let slot = Option.get (Ilog.begin_record log ~tx_id:1) in
  Alcotest.(check int) "one claimed" 7 (Ilog.free_slots log);
  Ilog.add_intent log slot (intent 100 32);
  Ilog.add_intent log slot (intent 200 64);
  Ilog.barrier log slot;
  Alcotest.(check int) "tx id" 1 (Ilog.slot_tx_id log slot);
  Alcotest.(check bool) "running" true (Ilog.slot_state log slot = Ilog.Running);
  Alcotest.(check (list (pair int int))) "intents recorded"
    [ (100, 32); (200, 64) ]
    (List.map (fun i -> (i.Ilog.off, i.Ilog.len)) (Ilog.intents log slot));
  Ilog.mark log slot Ilog.Committed;
  Alcotest.(check bool) "committed" true (Ilog.slot_state log slot = Ilog.Committed);
  Ilog.release log slot;
  Alcotest.(check int) "released" 8 (Ilog.free_slots log)

let test_exhaustion () =
  let log, _ = make ~n_slots:2 () in
  let s1 = Ilog.begin_record log ~tx_id:1 in
  Ilog.barrier log (Option.get s1);
  let s2 = Ilog.begin_record log ~tx_id:2 in
  Ilog.barrier log (Option.get s2);
  Alcotest.(check bool) "exhausted returns None" true (Ilog.begin_record log ~tx_id:3 = None)

let test_entry_limit () =
  let log, _ = make () in
  let slot = Option.get (Ilog.begin_record log ~tx_id:1) in
  for i = 1 to 16 do
    Ilog.add_intent log slot (intent (i * 64) 8)
  done;
  Alcotest.(check bool) "overflow raises" true
    (try
       Ilog.add_intent log slot (intent 9999 8);
       false
     with Failure _ -> true)

let test_recovery_scan_ordered () =
  let log, r = make () in
  let s1 = Option.get (Ilog.begin_record log ~tx_id:5) in
  Ilog.add_intent log s1 (intent 10 8);
  Ilog.mark log s1 Ilog.Committed;
  let s2 = Option.get (Ilog.begin_record log ~tx_id:6) in
  Ilog.add_intent log s2 (intent 20 8);
  Ilog.barrier log s2;
  Region.crash r;
  let log' = Ilog.open_existing r in
  let seen = ref [] in
  Ilog.iter_records log' (fun _ txid state intents ->
      seen := (txid, state, List.length intents) :: !seen);
  Alcotest.(check (list (triple int bool int)))
    "both records, ordered by tx id"
    [ (5, true, 1); (6, false, 1) ]
    (List.rev_map (fun (id, st, n) -> (id, st = Ilog.Committed, n)) !seen);
  Alcotest.(check int) "max tx id" 6 (Ilog.max_tx_id log')

let test_unbarriered_intents_invisible_after_crash () =
  (* Entries appended but never barriered may tear at a crash; recovery must
     only ever see a prefix of them, never garbage. Drop_unflushed makes the
     outcome deterministic: nothing survives. *)
  let log, r = make ~crash_mode:Region.Drop_unflushed () in
  let slot = Option.get (Ilog.begin_record log ~tx_id:1) in
  Ilog.add_intent log slot (intent 100 32);
  Region.crash r;
  let log' = Ilog.open_existing r in
  let records = ref 0 in
  Ilog.iter_records log' (fun _ _ _ _ -> incr records);
  Alcotest.(check int) "nothing durable" 0 !records

let test_barriered_intents_survive () =
  let log, r = make ~crash_mode:Region.Drop_unflushed () in
  let slot = Option.get (Ilog.begin_record log ~tx_id:1) in
  Ilog.add_intent log slot (intent 100 32);
  Ilog.barrier log slot;
  Ilog.add_intent log slot (intent 200 8);
  (* second intent not barriered *)
  Region.crash r;
  let log' = Ilog.open_existing r in
  let seen = ref [] in
  Ilog.iter_records log' (fun _ txid _ intents ->
      seen := (txid, List.map (fun i -> i.Ilog.off) intents) :: !seen);
  Alcotest.(check (list (pair int (list int)))) "only barriered prefix" [ (1, [ 100 ]) ] !seen

let test_slot_reuse_never_resurrects () =
  (* The dangerous pattern: a consumed record's slot is reused and the
     machine crashes mid-begin. The stale entries must not come back. *)
  let survived = ref 0 in
  for seed = 1 to 50 do
    let log, r = make ~seed ~n_slots:1 () in
    let s = Option.get (Ilog.begin_record log ~tx_id:1) in
    Ilog.add_intent log s (intent 4096 64);
    Ilog.mark log s Ilog.Committed;
    Ilog.release log s;
    (* reuse the slot; crash before the barrier *)
    let s2 = Option.get (Ilog.begin_record log ~tx_id:2) in
    Ilog.add_intent log s2 (intent 8192 32);
    Region.crash r;
    let log' = Ilog.open_existing r in
    Ilog.iter_records log' (fun _ txid _ intents ->
        List.iter
          (fun i ->
            (* Whatever survives must belong to tx 2; tx 1's consumed record
               must never reappear. *)
            if txid = 1 || i.Ilog.off = 4096 then incr survived)
          intents)
  done;
  Alcotest.(check int) "stale record never resurrected" 0 !survived

let torn_crash_qcheck =
  QCheck.Test.make ~name:"recovered intents are always a valid prefix" ~count:100
    QCheck.(pair small_int (small_list (pair small_int small_int)))
    (fun (seed, adds) ->
      let log, r = make ~seed:(seed + 1) () in
      let slot = Option.get (Ilog.begin_record log ~tx_id:7) in
      let added =
        List.filteri (fun i _ -> i < 16)
          (List.map (fun (o, l) -> (64 + abs o, 8 + (abs l mod 64))) adds)
      in
      List.iter (fun (off, len) -> Ilog.add_intent log slot (intent off len)) added;
      (* Crash without a barrier: any prefix may survive. *)
      Region.crash r;
      let log' = Ilog.open_existing r in
      let ok = ref true in
      Ilog.iter_records log' (fun _ txid _ intents ->
          if txid <> 7 then begin
            (* A torn begin_record header may surface with a stale or zero
               transaction id — benign as long as no intents validate
               against it. *)
            if intents <> [] then ok := false
          end
          else begin
            let expect = List.filteri (fun i _ -> i < List.length intents) added in
            let got = List.map (fun i -> (i.Ilog.off, i.Ilog.len)) intents in
            if got <> expect then ok := false
          end);
      !ok)

(* add_intent_merged: merges with the previous entry only inside the
   unflushed window, and always records the exact union. *)
let test_add_intent_merged () =
  let log, _ = make () in
  let slot = Option.get (Ilog.begin_record log ~tx_id:1) in
  let i1, m1 = Ilog.add_intent_merged log slot (intent 100 8) in
  Alcotest.(check bool) "first entry is appended" false m1;
  Alcotest.(check (pair int int)) "recorded as is" (100, 8) (i1.Ilog.off, i1.Ilog.len);
  let i2, m2 = Ilog.add_intent_merged log slot (intent 108 8) in
  Alcotest.(check bool) "adjacent entry merges" true m2;
  Alcotest.(check (pair int int)) "union recorded" (100, 16) (i2.Ilog.off, i2.Ilog.len);
  let _, m3 = Ilog.add_intent_merged log slot (intent 104 4) in
  Alcotest.(check bool) "contained entry is a no-op merge" true m3;
  let _, m4 = Ilog.add_intent_merged log slot (intent 200 8) in
  Alcotest.(check bool) "distant entry appends" false m4;
  Alcotest.(check (list (pair int int))) "log holds the merged set"
    [ (100, 16); (200, 8) ]
    (List.map (fun i -> (i.Ilog.off, i.Ilog.len)) (Ilog.intents log slot));
  (* a barrier closes the merge window: even an adjacent range must append *)
  Ilog.barrier log slot;
  let _, m5 = Ilog.add_intent_merged log slot (intent 208 8) in
  Alcotest.(check bool) "no merge across a barrier" false m5;
  Alcotest.(check (list (pair int int))) "flushed entry untouched"
    [ (100, 16); (200, 8); (208, 8) ]
    (List.map (fun i -> (i.Ilog.off, i.Ilog.len)) (Ilog.intents log slot))

let test_add_intent_merged_crash_exact () =
  (* Merged entries barriered then crashed must recover as the exact
     union — never wider (recovery's disjointness rule). *)
  let log, r = make ~crash_mode:Region.Drop_unflushed () in
  let slot = Option.get (Ilog.begin_record log ~tx_id:3) in
  ignore (Ilog.add_intent_merged log slot (intent 64 16));
  ignore (Ilog.add_intent_merged log slot (intent 80 16));
  ignore (Ilog.add_intent_merged log slot (intent 72 8));
  Ilog.barrier log slot;
  Region.crash r;
  let log' = Ilog.open_existing r in
  let seen = ref [] in
  Ilog.iter_records log' (fun _ txid _ intents ->
      seen := (txid, List.map (fun i -> (i.Ilog.off, i.Ilog.len)) intents) :: !seen);
  Alcotest.(check (list (pair int (list (pair int int)))))
    "one exact-union entry survives"
    [ (3, [ (64, 32) ]) ]
    !seen

let expect_corrupt what f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" what
  | exception Region.Corrupt { structure = "Intent_log"; _ } -> ()

let test_open_validates () =
  let clock = Clock.create () in
  let r =
    Region.create ~crash_mode:Region.Drop_unflushed ~rng:(Rng.create 1) ~clock ~size:8192 ()
  in
  expect_corrupt "bad magic" (fun () -> Ilog.open_existing r)

(* Header words: the magic at byte 0, the checksum at 8, then the thread,
   entry and slot counts. The slots start after the 64-byte header and one
   64-byte scratchpad per thread; a slot's state word is its second. *)
let test_open_checksum_mismatch () =
  let _, r = make () in
  Region.write_int r 32 9;
  Region.persist_all r;
  expect_corrupt "slot count changed under the checksum" (fun () -> Ilog.open_existing r)

let test_open_bad_slot_state () =
  let log, r = make () in
  let slot = Option.get (Ilog.begin_record log ~tx_id:5) in
  Ilog.barrier log slot;
  Alcotest.(check bool) "slot 0 claimed" true (Ilog.slot_tx_id log slot = 5);
  let state_word = 64 + (4 * 64) + 8 in
  Alcotest.(check int) "slot 0's state word is Running" 1 (Region.read_int r state_word);
  Region.write_int r state_word 4;
  Region.persist_all r;
  Region.crash r;
  expect_corrupt "slot state 4" (fun () -> Ilog.open_existing r)

(* A valid header of a 64-slot log, copied onto a region sized for 8. *)
let test_open_slots_overrun () =
  let _, big = make ~n_slots:64 () in
  let _, small = make ~n_slots:8 () in
  Region.write_bytes small 0 (Region.read_bytes big 0 64);
  Region.persist_all small;
  expect_corrupt "64 slots in a region sized for 8" (fun () -> Ilog.open_existing small)

(* The typed error reaches the caller of engine recovery unchanged. *)
let test_recover_corrupt () =
  let e = Kamino_core.Engine.create ~kind:Kamino_core.Engine.Kamino_simple ~seed:1 () in
  let r = Ilog.region (Option.get (Kamino_core.Engine.intent_log e)) in
  Kamino_core.Engine.crash e;
  Region.write_int r 16 (Region.read_int r 16 + 1);
  Region.persist_all r;
  expect_corrupt "engine recovery" (fun () -> Kamino_core.Engine.recover e)

let () =
  Alcotest.run "intent_log"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "slot lifecycle" `Quick test_slot_lifecycle;
          Alcotest.test_case "exhaustion" `Quick test_exhaustion;
          Alcotest.test_case "entry limit" `Quick test_entry_limit;
          Alcotest.test_case "open validates" `Quick test_open_validates;
          Alcotest.test_case "header checksum mismatch" `Quick test_open_checksum_mismatch;
          Alcotest.test_case "slot state outside 0..3" `Quick test_open_bad_slot_state;
          Alcotest.test_case "header slots overrun the region" `Quick test_open_slots_overrun;
          Alcotest.test_case "recovery raises Corrupt" `Quick test_recover_corrupt;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "ordered scan" `Quick test_recovery_scan_ordered;
          Alcotest.test_case "unbarriered intents invisible" `Quick
            test_unbarriered_intents_invisible_after_crash;
          Alcotest.test_case "barriered prefix survives" `Quick test_barriered_intents_survive;
          Alcotest.test_case "slot reuse never resurrects" `Quick
            test_slot_reuse_never_resurrects;
        ] );
      ( "coalescing",
        [
          Alcotest.test_case "add_intent_merged window" `Quick test_add_intent_merged;
          Alcotest.test_case "merged entry recovers exactly" `Quick
            test_add_intent_merged_crash_exact;
        ] );
      ( "qcheck",
        [
          QCheck_alcotest.to_alcotest torn_crash_qcheck;
        ] );
    ]
