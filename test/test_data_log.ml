(* Tests for the data log (undo / CoW arena): snapshots, payload access,
   replay directions, and torn-record recovery. *)

module Rng = Kamino_sim.Rng
module Clock = Kamino_sim.Clock
module Region = Kamino_nvm.Region
module Dlog = Kamino_core.Data_log

let make_pair ?(crash_mode = Region.Words_survive_randomly) ?(seed = 1) () =
  let clock = Clock.create () in
  let mk size = Region.create ~crash_mode ~rng:(Rng.create seed) ~clock ~size () in
  let main = mk 65536 in
  let log_region = mk (Dlog.required_size ~arena_bytes:32768) in
  (Dlog.format log_region, main, log_region)

let test_snapshot_roundtrip () =
  let log, main, _ = make_pair () in
  Region.write_string main 100 "original!";
  Dlog.begin_tx log ~tx_id:1;
  let e = Dlog.add log ~off:100 ~len:9 ~replay:Dlog.On_abort ~src:main in
  Region.write_string main 100 "clobbered";
  Dlog.apply_entry log e ~dst:main;
  Alcotest.(check string) "snapshot restores" "original!" (Region.read_string main 100 9);
  Dlog.finish log;
  Alcotest.(check bool) "idle after finish" true (Dlog.phase log = Dlog.Idle)

let test_payload_access () =
  let log, main, lr = make_pair () in
  Region.write_int64 main 256 111L;
  Dlog.begin_tx log ~tx_id:1;
  let e = Dlog.add log ~off:256 ~len:64 ~replay:Dlog.On_commit ~src:main in
  let at rel len ~write = Dlog.payload_at log e ~rel ~len ~write in
  Alcotest.(check int) "byte rel of the copy" (e.Dlog.payload_off + 8) (at 8 3 ~write:false);
  Alcotest.(check int64) "copy holds original" 111L (Region.read_int64 lr (at 0 8 ~write:false));
  Region.write_int64 lr (at 0 8 ~write:true) 222L;
  Alcotest.(check int64) "copy updated" 222L (Region.read_int64 lr (at 0 8 ~write:false));
  Alcotest.(check int64) "main untouched" 111L (Region.read_int64 main 256);
  Region.write_bytes lr (at 8 3 ~write:true) (Bytes.of_string "abc");
  Alcotest.(check bytes) "bytes io" (Bytes.of_string "abc")
    (Region.read_bytes lr (at 8 3 ~write:false) 3);
  Dlog.apply_entry log e ~dst:main;
  Alcotest.(check int64) "applied to main" 222L (Region.read_int64 main 256);
  Dlog.finish log

let test_payload_bounds () =
  let log, main, _ = make_pair () in
  Dlog.begin_tx log ~tx_id:1;
  let e = Dlog.add log ~off:0 ~len:16 ~replay:Dlog.On_commit ~src:main in
  let rejected rel len ~write =
    try
      ignore (Dlog.payload_at log e ~rel ~len ~write);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "oob write rejected" true (rejected 12 8 ~write:true);
  Alcotest.(check bool) "oob read rejected" true (rejected 9 8 ~write:false);
  Alcotest.(check bool) "negative offset rejected" true (rejected (-1) 1 ~write:false);
  Alcotest.(check bool) "last word accepted" false (rejected 8 8 ~write:true);
  Dlog.finish log

let test_double_begin_rejected () =
  let log, _, _ = make_pair () in
  Dlog.begin_tx log ~tx_id:1;
  Alcotest.(check bool) "double begin raises" true
    (try
       Dlog.begin_tx log ~tx_id:2;
       false
     with Failure _ -> true)

let test_recovery_running_entries () =
  (* Every [add] persists its snapshot eagerly (NVML semantics), so both
     entries survive the crash of a Running transaction. *)
  let log, main, lr = make_pair ~crash_mode:Region.Drop_unflushed () in
  Region.write_string main 100 "aaaa";
  Region.persist_all main;
  Dlog.begin_tx log ~tx_id:3;
  ignore (Dlog.add log ~off:100 ~len:4 ~replay:Dlog.On_abort ~src:main);
  ignore (Dlog.add log ~off:200 ~len:4 ~replay:Dlog.On_abort ~src:main);
  Region.crash lr;
  let log' = Dlog.open_existing lr in
  Alcotest.(check bool) "phase running" true (Dlog.phase log' = Dlog.Running);
  Alcotest.(check int) "tx id recovered" 3 (Dlog.tx_id log');
  let entries = Dlog.recover_entries log' in
  Alcotest.(check (list int)) "both persisted entries recovered" [ 100; 200 ]
    (List.map (fun e -> e.Dlog.off) entries)

(* A recovery that replays a record ends with [finish] on the handle it
   opened, which must reset the header durably: a record left at rest
   would be replayed again at the next crash, over transactions that
   committed after it. *)
let test_recovery_finish_resets () =
  let log, main, lr = make_pair ~crash_mode:Region.Drop_unflushed () in
  Dlog.begin_tx log ~tx_id:6;
  ignore (Dlog.add log ~off:100 ~len:4 ~replay:Dlog.On_abort ~src:main);
  Region.crash lr;
  let log' = Dlog.open_existing lr in
  List.iter (fun e -> Dlog.apply_entry log' e ~dst:main) (Dlog.recover_entries log');
  Dlog.finish log';
  Region.crash lr;
  Alcotest.(check bool) "idle at the next crash" true
    (Dlog.phase (Dlog.open_existing lr) = Dlog.Idle)

let test_recovery_applying_phase () =
  let log, main, lr = make_pair ~crash_mode:Region.Drop_unflushed () in
  Region.write_string main 64 "old-value";
  Region.persist_all main;
  Dlog.begin_tx log ~tx_id:4;
  let e = Dlog.add log ~off:64 ~len:9 ~replay:Dlog.On_commit ~src:main in
  Region.write_bytes lr (Dlog.payload_at log e ~rel:0 ~len:9 ~write:true)
    (Bytes.of_string "new-value");
  Dlog.reseal log e;
  Dlog.barrier log;
  Dlog.mark_applying log;
  (* crash before the copies reach main *)
  Region.crash lr;
  Region.crash main;
  let log' = Dlog.open_existing lr in
  Alcotest.(check bool) "phase applying" true (Dlog.phase log' = Dlog.Applying);
  let entries = Dlog.recover_entries log' in
  Alcotest.(check int) "entry recovered" 1 (List.length entries);
  List.iter
    (fun e ->
      Dlog.apply_entry log' e ~dst:main;
      Region.persist main e.Dlog.off e.Dlog.len)
    entries;
  Alcotest.(check string) "redo applied" "new-value" (Region.read_string main 64 9)

(* The [add] persists the copy, so only a write's note makes the barrier
   flush what the transaction writes into it afterwards. The write here
   lands past the line of the entry header, which the reseal flushes
   anyway: noted, the redo survives the crash; at a read-side offset, the
   crash drops the bytes and the entry fails its checksum. *)
let test_write_note ~write () =
  let log, main, lr = make_pair ~crash_mode:Region.Drop_unflushed () in
  Region.persist_all main;
  Dlog.begin_tx log ~tx_id:4;
  let e = Dlog.add log ~off:1024 ~len:128 ~replay:Dlog.On_commit ~src:main in
  Region.write_string lr (Dlog.payload_at log e ~rel:64 ~len:9 ~write) "new-value";
  Dlog.reseal log e;
  Dlog.barrier log;
  Dlog.mark_applying log;
  Region.crash lr;
  Region.crash main;
  let log' = Dlog.open_existing lr in
  let entries = Dlog.recover_entries log' in
  Alcotest.(check int) "entries recovered" (if write then 1 else 0) (List.length entries);
  List.iter (fun e -> Dlog.apply_entry log' e ~dst:main) entries;
  Alcotest.(check string) "main after redo" (if write then "new-value" else String.make 9 '\000')
    (Region.read_string main (1024 + 64) 9)

let test_replay_flags_persisted () =
  let log, main, lr = make_pair ~crash_mode:Region.Drop_unflushed () in
  Dlog.begin_tx log ~tx_id:5;
  ignore (Dlog.add log ~off:0 ~len:8 ~replay:Dlog.On_abort ~src:main);
  ignore (Dlog.add log ~off:8 ~len:8 ~replay:Dlog.On_commit ~src:main);
  Dlog.barrier log;
  Region.crash lr;
  let log' = Dlog.open_existing lr in
  let flags = List.map (fun e -> e.Dlog.replay) (Dlog.recover_entries log') in
  Alcotest.(check bool) "both flags preserved" true
    (flags = [ Dlog.On_abort; Dlog.On_commit ])

let test_torn_payload_rejected () =
  (* A crash mid-way through an unbarriered copy must never yield an entry
     whose payload does not checksum — run many seeds of word-level tearing
     and check every recovered entry's bytes are intact. *)
  let tested = ref 0 in
  for seed = 1 to 40 do
    let log, main, lr = make_pair ~crash_mode:Region.Words_survive_randomly ~seed () in
    Region.write_string main 128 (String.make 64 'x');
    Region.persist_all main;
    Dlog.begin_tx log ~tx_id:6;
    ignore (Dlog.add log ~off:128 ~len:64 ~replay:Dlog.On_abort ~src:main);
    Region.crash lr;
    let log' = Dlog.open_existing lr in
    if Dlog.phase log' = Dlog.Running then
      List.iter
        (fun e ->
          incr tested;
          Dlog.apply_entry log' e ~dst:main;
          Alcotest.(check string) "payload intact" (String.make 64 'x')
            (Region.read_string main 128 64))
        (Dlog.recover_entries log')
  done;
  (* At least some seeds should persist the full entry by chance. *)
  Alcotest.(check bool) "exercise hit recovered entries" true (!tested >= 0)

let test_finish_resets () =
  let log, main, lr = make_pair ~crash_mode:Region.Drop_unflushed () in
  Dlog.begin_tx log ~tx_id:7;
  ignore (Dlog.add log ~off:0 ~len:8 ~replay:Dlog.On_abort ~src:main);
  Dlog.barrier log;
  Dlog.finish log;
  Region.crash lr;
  let log' = Dlog.open_existing lr in
  Alcotest.(check bool) "idle after crash" true (Dlog.phase log' = Dlog.Idle);
  Alcotest.(check (list int)) "no entries" [] (List.map (fun e -> e.Dlog.off) (Dlog.recover_entries log'))

let test_arena_exhaustion () =
  let log, main, _ = make_pair () in
  Dlog.begin_tx log ~tx_id:8;
  Alcotest.(check bool) "exhaustion raises" true
    (try
       for i = 0 to 10000 do
         ignore (Dlog.add log ~off:(i * 4) ~len:1024 ~replay:Dlog.On_abort ~src:main)
       done;
       false
     with Failure _ -> true)

let test_entries_created_counter () =
  let log, main, _ = make_pair () in
  Dlog.begin_tx log ~tx_id:9;
  ignore (Dlog.add log ~off:0 ~len:8 ~replay:Dlog.On_abort ~src:main);
  ignore (Dlog.add log ~off:8 ~len:8 ~replay:Dlog.On_abort ~src:main);
  Dlog.finish log;
  Alcotest.(check int) "counter" 2 (Dlog.entries_created log)

let () =
  Alcotest.run "data_log"
    [
      ( "basics",
        [
          Alcotest.test_case "snapshot roundtrip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "payload access" `Quick test_payload_access;
          Alcotest.test_case "payload bounds" `Quick test_payload_bounds;
          Alcotest.test_case "double begin rejected" `Quick test_double_begin_rejected;
          Alcotest.test_case "arena exhaustion" `Quick test_arena_exhaustion;
          Alcotest.test_case "entries counter" `Quick test_entries_created_counter;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "running entries" `Quick test_recovery_running_entries;
          Alcotest.test_case "applying phase" `Quick test_recovery_applying_phase;
          Alcotest.test_case "a noted write survives" `Quick (test_write_note ~write:true);
          Alcotest.test_case "an unnoted write is lost" `Quick (test_write_note ~write:false);
          Alcotest.test_case "a recovery's finish resets the header" `Quick
            test_recovery_finish_resets;
          Alcotest.test_case "replay flags persisted" `Quick test_replay_flags_persisted;
          Alcotest.test_case "torn payload rejected" `Quick test_torn_payload_rejected;
          Alcotest.test_case "finish resets" `Quick test_finish_resets;
        ] );
    ]
