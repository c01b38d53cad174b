(* White-box unit tests for the core components that the engine composes:
   the lock table's virtual-time semantics, the backup applier's timeline,
   and the backup manager's copy-tracking invariants. *)

module Clock = Kamino_sim.Clock
module Rng = Kamino_sim.Rng
module Region = Kamino_nvm.Region
module Heap = Kamino_heap.Heap
module Locks = Kamino_core.Locks
module Applier = Kamino_core.Applier
module Backup = Kamino_core.Backup
module Intent_log = Kamino_core.Intent_log
module Engine = Kamino_core.Engine

(* --- Locks ---------------------------------------------------------------- *)

let test_locks_uncontended () =
  let l = Locks.create () in
  Alcotest.(check int) "free lock acquired now" 105
    (Locks.acquire_write l 1 ~now:100 ~cost_ns:5.0);
  Alcotest.(check int) "read lock too" 205 (Locks.acquire_read l 2 ~now:200 ~cost_ns:5.0);
  Alcotest.(check int) "no waits recorded" 0 (Locks.wait_events l)

let test_locks_writer_blocks_writer () =
  let l = Locks.create () in
  ignore (Locks.acquire_write l 1 ~now:0 ~cost_ns:0.0);
  Locks.release_writes l [ 1 ] ~at:1000;
  Alcotest.(check int) "second writer waits for release" 1000
    (Locks.acquire_write l 1 ~now:300 ~cost_ns:0.0);
  Alcotest.(check int) "one wait event" 1 (Locks.wait_events l);
  Alcotest.(check int) "wait time recorded" 700 (Locks.waits l)

let test_locks_writer_blocks_reader_not_vice_versa () =
  let l = Locks.create () in
  ignore (Locks.acquire_write l 1 ~now:0 ~cost_ns:0.0);
  Locks.release_writes l [ 1 ] ~at:1000;
  Alcotest.(check int) "reader waits for writer" 1000
    (Locks.acquire_read l 1 ~now:100 ~cost_ns:0.0);
  Locks.release_reads l [ 1 ] ~at:2000;
  (* a later reader does NOT wait for the earlier reader *)
  Alcotest.(check int) "reader does not wait for reader" 1500
    (Locks.acquire_read l 1 ~now:1500 ~cost_ns:0.0);
  (* but a writer waits for the reader *)
  Alcotest.(check int) "writer waits for readers" 2000
    (Locks.acquire_write l 1 ~now:1200 ~cost_ns:0.0)

let test_locks_release_is_monotone () =
  let l = Locks.create () in
  ignore (Locks.acquire_write l 1 ~now:0 ~cost_ns:0.0);
  Locks.release_writes l [ 1 ] ~at:1000;
  (* an earlier release time must not pull the lock backwards *)
  Locks.release_writes l [ 1 ] ~at:500;
  Alcotest.(check int) "max of release times wins" 1000
    (Locks.acquire_write l 1 ~now:0 ~cost_ns:0.0)

let test_locks_active_tracking () =
  let l = Locks.create () in
  ignore (Locks.acquire_write l 7 ~now:0 ~cost_ns:0.0);
  Alcotest.(check bool) "held while active" true (Locks.held_by_active_tx l 7);
  Locks.release_writes l [ 7 ] ~at:10;
  Alcotest.(check bool) "released" false (Locks.held_by_active_tx l 7);
  Alcotest.(check bool) "unknown key not held" false (Locks.held_by_active_tx l 99)

let test_locks_last_task () =
  let l = Locks.create () in
  Alcotest.(check int) "no task yet" (-1) (Locks.last_writer_task l 3);
  Locks.set_last_writer_task l 3 42;
  Alcotest.(check int) "task recorded" 42 (Locks.last_writer_task l 3)

let test_locks_striping () =
  Alcotest.(check int) "default stripe count" 16 (Locks.shard_count (Locks.create ()));
  Alcotest.(check int) "custom stripe count" 4
    (Locks.shard_count (Locks.create ~shards:4 ()));
  Alcotest.(check int) "degenerate request clamps to one shard" 1
    (Locks.shard_count (Locks.create ~shards:0 ()));
  (* semantics are shard-invariant: replay the same script against 1-shard
     and 16-shard tables and compare every acquire result *)
  let script =
    List.init 200 (fun i -> ((i * 7919) mod 4096, i mod 3, 100 * i))
  in
  let run shards =
    let l = Locks.create ~shards () in
    List.map
      (fun (key, op, now) ->
        match op with
        | 0 -> Locks.acquire_write l key ~now ~cost_ns:5.0
        | 1 -> Locks.acquire_read l key ~now ~cost_ns:5.0
        | _ ->
            Locks.release_writes l [ key ] ~at:(now + 50);
            0)
      script
  in
  Alcotest.(check (list int)) "one shard agrees with sixteen" (run 1) (run 16)

(* A lock under an open-ended hold (a chain head awaiting the tail ack) has
   release time [max_int]. Acquiring it must not add [max_int - now] to the
   wait total (which wraps negative): the event is counted, no wait time
   is added, and the caller proceeds at [now]. *)
let test_locks_open_hold_counts_no_wait () =
  let l = Locks.create () in
  ignore (Locks.acquire_write l 1 ~now:0 ~cost_ns:0.0);
  Locks.release_writes l [ 1 ] ~at:100;
  Locks.hold_writes l [ 1 ];
  Alcotest.(check int) "write proceeds at now" 5_000
    (Locks.acquire_write l 1 ~now:5_000 ~cost_ns:10.0);
  Alcotest.(check int) "read proceeds at now" 5_000
    (Locks.acquire_read l 1 ~now:5_000 ~cost_ns:10.0);
  Alcotest.(check int) "both acquisitions counted" 2 (Locks.wait_events l);
  Alcotest.(check int) "no wait time added" 0 (Locks.waits l);
  Locks.release_held_writes l [ 1 ] ~at:9_000;
  Alcotest.(check int) "after the release, a writer waits for it" 9_010
    (Locks.acquire_write l 1 ~now:5_000 ~cost_ns:10.0);
  Alcotest.(check int) "that wait is counted" 4_000 (Locks.waits l)

(* --- Applier -------------------------------------------------------------- *)

let make_ilog () =
  let clock = Clock.create () in
  let size = Intent_log.required_size ~max_user_threads:4 ~max_tx_entries:8 ~n_slots:8 in
  let r =
    Region.create ~crash_mode:Region.Drop_unflushed ~rng:(Rng.create 1) ~clock ~size ()
  in
  Intent_log.format r ~max_user_threads:4 ~max_tx_entries:8 ~n_slots:8

let test_applier_timeline () =
  let ilog = make_ilog () in
  let applied = ref [] in
  let a =
    Applier.create ~regions:[||]
      ~apply:(fun tasks ->
        List.iter
          (fun task ->
            applied := task.Applier.tx_id :: !applied;
            Intent_log.release ilog task.Applier.slot)
          tasks)
  in
  let slot1 = Option.get (Intent_log.begin_record ilog ~tx_id:1) in
  Intent_log.barrier ilog slot1;
  let slot2 = Option.get (Intent_log.begin_record ilog ~tx_id:2) in
  Intent_log.barrier ilog slot2;
  let id1, f1 = Applier.enqueue a ~commit_time:100 ~cost_ns:50.0 ~tx_id:1 ~slot:slot1 ~ranges:[] in
  let id2, f2 = Applier.enqueue a ~commit_time:120 ~cost_ns:50.0 ~tx_id:2 ~slot:slot2 ~ranges:[] in
  Alcotest.(check int) "first finishes at commit+cost" 150 f1;
  (* the second task starts when the first ends (150 > 120) *)
  Alcotest.(check int) "second queues behind first" 200 f2;
  Alcotest.(check int) "virtual now" 200 (Applier.virtual_now a);
  Alcotest.(check int) "nothing applied yet (lazy)" 0 (Applier.applied_through a);
  Applier.sync_through a id1;
  Alcotest.(check (list int)) "only first applied" [ 1 ] (List.rev !applied);
  Alcotest.(check int) "applied through first" id1 (Applier.applied_through a);
  Applier.drain a;
  Alcotest.(check (list int)) "both applied in order" [ 1; 2 ] (List.rev !applied);
  Alcotest.(check int) "applied through second" id2 (Applier.applied_through a);
  Alcotest.(check int) "queue empty" 0 (Applier.queued a)

let test_applier_idle_gap () =
  let ilog = make_ilog () in
  let a =
    Applier.create ~regions:[||]
      ~apply:(fun tasks ->
        List.iter (fun task -> Intent_log.release ilog task.Applier.slot) tasks)
  in
  let slot = Option.get (Intent_log.begin_record ilog ~tx_id:1) in
  Intent_log.barrier ilog slot;
  let _, f1 = Applier.enqueue a ~commit_time:100 ~cost_ns:10.0 ~tx_id:1 ~slot ~ranges:[] in
  Alcotest.(check int) "task 1 done at 110" 110 f1;
  (* a task committed much later starts at its commit time, not at 110 *)
  let slot2 = Option.get (Intent_log.begin_record ilog ~tx_id:2) in
  Intent_log.barrier ilog slot2;
  let _, f2 = Applier.enqueue a ~commit_time:5000 ~cost_ns:10.0 ~tx_id:2 ~slot:slot2 ~ranges:[] in
  Alcotest.(check int) "idle gap respected" 5010 f2

let test_applier_drain_one () =
  let ilog = make_ilog () in
  let a =
    Applier.create ~regions:[||]
      ~apply:(fun tasks ->
        List.iter (fun task -> Intent_log.release ilog task.Applier.slot) tasks)
  in
  Alcotest.(check (option int)) "drain on empty" None (Applier.drain_one a);
  let slot = Option.get (Intent_log.begin_record ilog ~tx_id:1) in
  let _, f = Applier.enqueue a ~commit_time:0 ~cost_ns:33.0 ~tx_id:1 ~slot ~ranges:[] in
  Alcotest.(check (option int)) "drain_one returns finish" (Some f) (Applier.drain_one a);
  Alcotest.(check int) "slot released back" 8 (Intent_log.free_slots ilog)

let test_applier_batching () =
  let ilog = make_ilog () in
  let batches = ref [] in
  let a =
    Applier.create ~regions:[||]
      ~apply:(fun tasks ->
        batches := List.map (fun task -> task.Applier.tx_id) tasks :: !batches;
        List.iter (fun task -> Intent_log.release ilog task.Applier.slot) tasks)
  in
  let enqueue tx_id =
    let slot = Option.get (Intent_log.begin_record ilog ~tx_id) in
    Intent_log.barrier ilog slot;
    ignore (Applier.enqueue a ~commit_time:0 ~cost_ns:10.0 ~tx_id ~slot ~ranges:[])
  in
  List.iter enqueue [ 1; 2; 3 ];
  Applier.drain a;
  Alcotest.(check (list (list int))) "one batch of three, in order" [ [ 1; 2; 3 ] ]
    (List.rev !batches);
  Alcotest.(check int) "batched tasks counted" 3 (Applier.tasks_batched a);
  Alcotest.(check int) "all applied" 3 (Applier.tasks_applied a);
  (* a single queued task drains as a batch of one and is not "batched" *)
  enqueue 4;
  Applier.drain a;
  Alcotest.(check (list (list int))) "singleton batch" [ [ 1; 2; 3 ]; [ 4 ] ]
    (List.rev !batches);
  Alcotest.(check int) "singleton not counted as batched" 3 (Applier.tasks_batched a);
  (* sync_through batches only the covered prefix *)
  enqueue 5;
  enqueue 6;
  enqueue 7;
  Applier.sync_through a (Applier.applied_through a + 2);
  Alcotest.(check (list (list int))) "prefix batch" [ [ 1; 2; 3 ]; [ 4 ]; [ 5; 6 ] ]
    (List.rev !batches);
  Applier.drain a

(* --- Backup --------------------------------------------------------------- *)

let make_dynamic_regions ?(policy = Backup.Lru_policy) ?(slots_bytes = 16384)
    ?(crash_mode = Region.Drop_unflushed) () =
  let clock = Clock.create () in
  let mk size = Region.create ~crash_mode ~rng:(Rng.create 2) ~clock ~size () in
  let main = mk 65536 in
  let slots = mk slots_bytes in
  let table = mk 8192 in
  let b = Backup.create_dynamic ~slots ~table ~capacity:(Region.size table / 32) ~policy in
  (b, main, slots, table)

let make_dynamic ?policy ?slots_bytes () =
  let b, main, _, _ = make_dynamic_regions ?policy ?slots_bytes () in
  (b, main)

let no_pressure () = ()

let test_backup_roundtrip () =
  let b, main = make_dynamic () in
  Region.write_string main 1000 "versionA";
  Backup.ensure_copy b ~main ~off:1000 ~len:8 ~locked:(fun _ -> false) ~pressure:no_pressure;
  Alcotest.(check bool) "copy exists" true (Backup.has_copy b ~off:1000);
  Alcotest.(check int) "one miss" 1 (Backup.misses b);
  Region.write_string main 1000 "versionB";
  Alcotest.(check bool) "main rolled back" true (Backup.roll_back b ~main ~off:1000 ~len:8);
  Alcotest.(check string) "old version restored" "versionA" (Region.read_string main 1000 8);
  Region.write_string main 1000 "versionC";
  Backup.propagate b ~main ~off:1000 ~len:8;
  Region.write_string main 1000 "versionD";
  ignore (Backup.roll_back b ~main ~off:1000 ~len:8);
  Alcotest.(check string) "roll-forwarded version restored" "versionC"
    (Region.read_string main 1000 8)

let test_backup_hit_counting () =
  let b, main = make_dynamic () in
  Backup.ensure_copy b ~main ~off:64 ~len:32 ~locked:(fun _ -> false) ~pressure:no_pressure;
  Backup.ensure_copy b ~main ~off:64 ~len:32 ~locked:(fun _ -> false) ~pressure:no_pressure;
  Alcotest.(check int) "one miss" 1 (Backup.misses b);
  Alcotest.(check int) "one hit" 1 (Backup.hits b);
  Alcotest.(check int) "one resident" 1 (Backup.resident b)

let test_backup_eviction_pressure () =
  let b, main = make_dynamic () in
  (* slots region is 16 KiB; 1 KiB copies force evictions quickly *)
  for i = 0 to 31 do
    Backup.ensure_copy b ~main ~off:(1024 * (i + 1)) ~len:1000 ~locked:(fun _ -> false)
      ~pressure:no_pressure
  done;
  Alcotest.(check bool) "evictions happened" true (Backup.evictions b > 0);
  Alcotest.(check bool) "bounded residency" true (Backup.resident b <= 16);
  (* everything pinned -> pressure callback then failure *)
  let pressured = ref false in
  Alcotest.(check bool) "exhaustion raises when all pinned" true
    (try
       for i = 0 to 31 do
         Backup.ensure_copy b ~main ~off:(65536 - (1024 * (i + 1))) ~len:1000
           ~locked:(fun _ -> true)
           ~pressure:(fun () -> pressured := true)
       done;
       false
     with Failure _ -> true);
  Alcotest.(check bool) "pressure was signalled first" true !pressured

let test_backup_stale_length_replaced () =
  let b, main = make_dynamic () in
  Region.write_string main 2048 "old-size-contents!";
  Backup.ensure_copy b ~main ~off:2048 ~len:8 ~locked:(fun _ -> false) ~pressure:no_pressure;
  (* same offset, different length: the stale copy must be replaced, not
     reused (regression for the rolled-back-allocation corruption) *)
  Backup.ensure_copy b ~main ~off:2048 ~len:18 ~locked:(fun _ -> false) ~pressure:no_pressure;
  Alcotest.(check int) "second ensure was a miss" 2 (Backup.misses b);
  Region.write_string main 2048 "new-size-contents!";
  ignore (Backup.roll_back b ~main ~off:2048 ~len:18);
  Alcotest.(check string) "full-length restore" "old-size-contents!"
    (Region.read_string main 2048 18)

(* The resident map against the look-up table through a full table: a
   16-bucket table beside room for 40 copies, so every miss past the
   sixteenth finds the table full, evicts through [Phash.Overload] and
   retries; then hits, drops and a reopen. *)
let test_backup_resident_map_full_table () =
  let clock = Clock.create () in
  let mk size = Region.create ~rng:(Rng.create 2) ~clock ~size () in
  let main = mk 65536 and slots = mk (40 * 16) in
  let table = mk (Kamino_core.Phash.required_size ~capacity:16) in
  let b = ref (Backup.create_dynamic ~slots ~table ~capacity:16 ~policy:Backup.Lru_policy) in
  let check ctx =
    match Backup.check_resident !b with Ok () -> () | Error e -> Alcotest.failf "%s: %s" ctx e
  in
  let ensure i =
    Backup.ensure_copy !b ~main ~off:(i * 64) ~len:16 ~locked:(fun _ -> false)
      ~pressure:no_pressure
  in
  for i = 1 to 60 do
    ensure i;
    check (Printf.sprintf "miss %d" i)
  done;
  Alcotest.(check int) "every miss past the table's capacity evicts" 44 (Backup.evictions !b);
  Alcotest.(check int) "the table stays full" 16 (Backup.resident !b);
  for i = 41 to 60 do
    if i mod 3 = 0 then Backup.drop !b ~off:(i * 64) else ensure i;
    check (Printf.sprintf "hit or drop %d" i)
  done;
  Region.crash slots;
  Region.crash table;
  b := Backup.reopen !b;
  check "reopen";
  for i = 61 to 80 do
    ensure i;
    check (Printf.sprintf "miss %d after reopen" i)
  done

(* --- A full look-up table under the engine ---------------------------------

   A kamino-dynamic engine at the 64 KiB slot floor has a 1024-bucket
   table, and its slots hold 1365 copies of a 32-byte object (48 bytes
   each, the object's extent): a working set of such objects larger than
   the table fills the table first, so each miss past it publishes
   through [Phash.Overload], an eviction, a fence and a retry. *)

let full_table_config =
  { Engine.default_config with Engine.heap_bytes = 1 lsl 20; log_slots = 16 }

let full_table_kind = Engine.Kamino_dynamic { alpha = 0.01; policy = Backup.Lru_policy }

let full_table_objects = 1200

let full_table_engine ?(crash_mode = Region.Drop_unflushed) () =
  let e =
    Engine.create ~config:{ full_table_config with Engine.crash_mode } ~kind:full_table_kind
      ~seed:5 ()
  in
  let ps =
    List.concat
      (List.init (full_table_objects / 8) (fun _ ->
           Engine.with_tx e (fun tx ->
               List.init 8 (fun _ ->
                   let p = Engine.alloc tx 32 in
                   Tx_model.stamp_object tx p 32 0L;
                   p))))
  in
  (e, Array.of_list ps)

(* One transaction that stamps each [(object, stamp)] of [writes]. *)
let restamp e writes =
  Engine.with_tx e (fun tx ->
      List.iter
        (fun (p, stamp) ->
          Engine.add tx p;
          Tx_model.stamp_object tx p 32 stamp)
        writes)

let backup_of e = Option.get (Engine.backup e)

let test_engine_full_table () =
  let e, ps = full_table_engine () in
  let verify ctx =
    match Engine.verify_backup e with Ok () -> () | Error err -> Alcotest.failf "%s: %s" ctx err
  in
  (* Four objects, so up to four full-table misses, per transaction. *)
  for i = 0 to (full_table_objects / 4) - 1 do
    restamp e (List.init 4 (fun j -> (ps.((4 * i) + j), Int64.of_int ((4 * i) + j + 1))));
    verify (Printf.sprintf "transaction %d" i)
  done;
  let b = backup_of e in
  Alcotest.(check bool) "more objects than buckets were copied" true (Backup.misses b > 1024);
  Alcotest.(check bool) "the table filled and evicted" true (Backup.evictions b > 0);
  Alcotest.(check int) "one resident per bucket" 1024 (Backup.resident b);
  Array.iteri
    (fun i p ->
      Alcotest.(check int64) (Printf.sprintf "object %d" i) (Int64.of_int (i + 1))
        (Engine.peek_int64 e p 0))
    ps

(* Crash at every fence of a restamp whose miss finds the table full:
   the eviction's fence, the retried insert's value fence, the
   transaction's own fences and the applier drain's, each under every
   crash mode, with recoveries that crash at each of their fences in
   turn. After each, the objects are in the model's before- or
   after-state, the heap validates and the backup matches main. *)
let test_engine_full_table_fence_sweep () =
  let stamp i = Int64.of_int (i + 1) in
  let setup crash_mode () =
    let e, ps = full_table_engine ~crash_mode () in
    Array.iteri (fun i p -> if i > 0 then restamp e [ (p, stamp i) ]) ps;
    Engine.drain_backup e;
    (e, Array.to_list (Array.map (fun p -> (p, 32)) ps))
  in
  let op (e, ps) = restamp e [ (fst (List.hd ps), 1000L) ] in
  let _, ps = setup Region.Drop_unflushed () in
  let m = Tx_model.model () in
  let model_tx f =
    Tx_model.begin_tx m;
    List.iteri f ps;
    Tx_model.commit m;
    Tx_model.show_objects m
  in
  let before = model_tx (fun i (p, _) -> Tx_model.put m p (32, if i = 0 then 0L else stamp i)) in
  let after = model_tx (fun i (p, _) -> if i = 0 then Tx_model.put m p (32, 1000L)) in
  List.iter
    (fun (mode_name, crash_mode) ->
      let ctx = "full-table restamp, " ^ mode_name in
      let reference = setup crash_mode () in
      let b = backup_of (fst reference) in
      let evicted = Backup.evictions b in
      Alcotest.(check int) (ctx ^ ": the table is full") 1024 (Backup.resident b);
      op reference;
      Alcotest.(check int) (ctx ^ ": the miss evicts one") (evicted + 1) (Backup.evictions b);
      let st =
        Fence_sweep.sweep ~ctx ~setup:(setup crash_mode)
          ~crash:(fun (e, _) -> Engine.crash e)
          ~recover:(fun (e, _) -> Engine.recover e)
          ~op
          ~drain:(fun (e, _) -> Engine.drain_backup e)
          ~observe:(fun (e, ps) -> Tx_model.observe_objects e ps)
          ~expect:(before, after)
          ~check:(fun (e, _) -> Tx_model.check_engine e)
          ()
      in
      (* The eviction's fence and the retried insert's value fence, three
         for the transaction and two for the drain. *)
      Alcotest.(check int) (ctx ^ ": crash points") 7 st.Fence_sweep.points;
      Fence_sweep.require_split ~ctx st)
    [
      ("drop-unflushed", Region.Drop_unflushed);
      ("lines-survive", Region.Lines_survive_randomly);
      ("words-survive", Region.Words_survive_randomly);
    ]

(* --- Eviction-policy properties ------------------------------------------- *)

(* A copy takes a headerless slot of its length rounded up to 16 bytes,
   carved back to back from offset 0. Three slots plus a remainder one
   granule short of a fourth hold exactly three copies, so the fourth
   insertion must evict. *)
let slot_bytes len = (len + 15) land lnot 15
let copy_len = 1000
let tight_capacity = 3
let tight_slots_bytes = (tight_capacity * slot_bytes copy_len) + slot_bytes copy_len - 16

let offs_of_keys keys = List.map (fun k -> 1024 * k) keys

(* Random insertion storm with a pinned subset. Whatever the policy and the
   insertion/reinsertion order, a pinned resident copy must never be evicted
   as long as the pinned set itself fits in the slots region. *)
let pinned_never_evicted_qcheck policy name =
  QCheck.Test.make ~name ~count:200
    QCheck.(small_list (int_bound 15))
    (fun keys ->
      let b, main = make_dynamic ~policy ~slots_bytes:tight_slots_bytes () in
      (* Pin the first two distinct keys touched; everything else is fair
         game for eviction. *)
      let pinned = ref [] in
      let locked off = List.mem off !pinned in
      List.iter
        (fun key ->
          let off = 1024 * (key + 1) in
          if List.length !pinned < tight_capacity - 1
             && not (List.mem off !pinned)
          then pinned := off :: !pinned;
          Backup.ensure_copy b ~main ~off ~len:copy_len ~locked
            ~pressure:(fun () -> ()))
        keys;
      List.for_all (fun off -> Backup.has_copy b ~off) !pinned
      && Backup.resident b <= tight_capacity)

(* [ensure_copy] must raise only when the pinned working set genuinely
   exceeds the slots capacity — and must signal [pressure] first. With
   [n] distinct pinned keys the storm succeeds iff [n <= capacity]. *)
let exhaustion_iff_oversubscribed_qcheck policy name =
  QCheck.Test.make ~name ~count:100
    QCheck.(int_bound 5)
    (fun n ->
      let b, main = make_dynamic ~policy ~slots_bytes:tight_slots_bytes () in
      let offs = offs_of_keys (List.init n (fun i -> i + 1)) in
      let locked off = List.mem off offs in
      let pressured = ref false in
      let raised =
        try
          List.iter
            (fun off ->
              Backup.ensure_copy b ~main ~off ~len:copy_len ~locked
                ~pressure:(fun () -> pressured := true))
            offs;
          false
        with Failure _ -> true
      in
      if n <= tight_capacity then (not raised) && not !pressured
      else raised && !pressured)

(* The observable LRU/FIFO distinction: fill to capacity with A, B, C,
   re-touch A, then insert D, then E. A miss on a full region evicts one
   victim ahead: D's miss, the first eviction, evicts two (one to use, one
   to park as the spare), and E's evicts one. LRU evicts B, C, then A
   (least recently used first); FIFO ignores the re-touch and evicts A, B,
   then C (first in). *)
let test_backup_policy_victim () =
  let victims policy =
    let b, main = make_dynamic ~policy ~slots_bytes:tight_slots_bytes () in
    let ensure off =
      Backup.ensure_copy b ~main ~off ~len:copy_len ~locked:(fun _ -> false)
        ~pressure:no_pressure
    in
    let a, bk, c, d, e = (1024, 2048, 3072, 4096, 5120) in
    let gone () = List.filter (fun off -> not (Backup.has_copy b ~off)) [ a; bk; c; d; e ] in
    ensure a; ensure bk; ensure c;
    Alcotest.(check int) "filled to capacity" tight_capacity (Backup.resident b);
    ensure a; (* hit: refreshes recency under LRU, a no-op under FIFO *)
    ensure d;
    Alcotest.(check int) "first eviction: the victim and the spare" 2 (Backup.evictions b);
    Alcotest.(check int) "one slot parked" (tight_capacity - 1) (Backup.resident b);
    let after_d = List.filter (fun off -> off <> e) (gone ()) in
    ensure e;
    Alcotest.(check int) "then one eviction per miss" 3 (Backup.evictions b);
    Alcotest.(check int) "still one slot parked" (tight_capacity - 1) (Backup.resident b);
    let after_e = List.filter (fun off -> not (List.mem off after_d)) (gone ()) in
    (after_d, after_e)
  in
  Alcotest.(check (pair (list int) (list int))) "LRU evicts the stale keys first"
    ([ 2048; 3072 ], [ 1024 ])
    (victims Backup.Lru_policy);
  Alcotest.(check (pair (list int) (list int))) "FIFO evicts the oldest insertions first"
    ([ 1024; 2048 ], [ 3072 ])
    (victims Backup.Fifo_policy)

(* A full region of equal-length copies recycles one miss ahead. The
   first eviction has no spare: it copies into its victim's slot after one
   more fence and parks the next victim's slot as the spare. Every later
   miss copies into the spare and parks its own victim's slot. So slots
   serve newcomers in victim order, one spare stays parked, and the region
   holds capacity - 1 copies. *)
let test_backup_recycles_victim_slot () =
  let b, main = make_dynamic ~slots_bytes:tight_slots_bytes () in
  let ensure off =
    Region.write_string main off (Printf.sprintf "key %d" off);
    Backup.ensure_copy b ~main ~off ~len:copy_len ~locked:(fun _ -> false)
      ~pressure:no_pressure
  in
  let slot_of off =
    List.find_map (fun (k, slot, _) -> if k = off then Some slot else None)
      (Backup.dump_mapping b)
  in
  let first = [ 1024; 2048; 3072 ] in
  List.iter ensure first;
  let slots = List.map slot_of first in
  Alcotest.(check bool) "all resident" true (List.for_all Option.is_some slots);
  List.iteri
    (fun i newcomer ->
      ensure newcomer;
      let victim = List.nth first i in
      Alcotest.(check int) "evictions: one ahead" (i + 2) (Backup.evictions b);
      Alcotest.(check int) "one spare parked" (tight_capacity - 1) (Backup.resident b);
      Alcotest.(check (option int)) "victim gone" None (slot_of victim);
      Alcotest.(check (option int)) "newcomer in the victim's slot" (List.nth slots i)
        (slot_of newcomer);
      Alcotest.(check (option bool)) "recycled copy is current" (Some true)
        (Backup.copy_matches b ~main ~off:newcomer))
    [ 4096; 5120; 6144 ]

(* Fences per miss, summed over the slots and table regions. A miss with
   a free slot, or with the spare a full region parked, issues one: the
   mapping's value word, which also orders the copy and any victim's
   tombstone. The first eviction on a full region has no spare and issues
   two. *)
let test_backup_miss_fences () =
  let b, main, slots, table = make_dynamic_regions ~slots_bytes:tight_slots_bytes () in
  let fences () = (Region.counters slots).fences + (Region.counters table).fences in
  let miss_fences off =
    let before = fences () in
    Backup.ensure_copy b ~main ~off ~len:copy_len ~locked:(fun _ -> false)
      ~pressure:no_pressure;
    fences () - before
  in
  Alcotest.(check (list int)) "free slots: one fence each" [ 1; 1; 1 ]
    (List.map miss_fences [ 1024; 2048; 3072 ]);
  Alcotest.(check int) "first eviction: two fences" 2 (miss_fences 4096);
  Alcotest.(check (list int)) "spare reused: one fence each" [ 1; 1; 1; 1 ]
    (List.map miss_fences [ 5120; 6144; 7168; 8192 ]);
  Alcotest.(check int) "a hit: none" 0 (miss_fences 8192);
  Alcotest.(check int) "six evictions" 6 (Backup.evictions b)

(* Crash storm over slot reuse. A tight slots region sees [ensure_copy],
   [propagate] and [drop] over mixed copy lengths, so slots are recycled
   in place and freed on a length mismatch, while a pinned subset is
   locked against eviction. Both backup regions then crash after a random prefix of the
   storm and the backup reopens from its table. The crash falls between
   operations; the miss fence sweep below crashes at every fence inside
   one. *)
let storm_lens = [| copy_len; 496; 24 |]
let storm_slots_bytes = 4 * slot_bytes copy_len

let storm_invariants b ~main =
  let mapping = Backup.dump_mapping b in
  let by_slot = List.sort (fun (_, s1, _) (_, s2, _) -> compare s1 s2) mapping in
  let rec disjoint = function
    | (_, s1, l1) :: ((_, s2, _) :: _ as rest) -> s1 + slot_bytes l1 <= s2 && disjoint rest
    | [ (_, s, l) ] -> s + slot_bytes l <= storm_slots_bytes
    | [] -> true
  in
  disjoint by_slot
  && List.for_all
       (fun (off, _, _) -> Backup.copy_matches b ~main ~off = Some true)
       mapping
  && List.fold_left (fun acc (_, _, l) -> acc + slot_bytes l) 0 mapping
     <= storm_slots_bytes
  && Backup.resident b = List.length mapping

let storm_qcheck =
  QCheck.Test.make ~name:"slot reuse survives a crash storm" ~count:300
    QCheck.(
      triple
        (list_of_size Gen.(1 -- 60) (triple (int_bound 3) (int_bound 11) (int_bound 2)))
        small_nat
        (list_of_size Gen.(0 -- 2) (int_bound 11)))
    (fun (ops, crash_at, pinned_keys) ->
      let b, main, slots, table =
        make_dynamic_regions ~slots_bytes:storm_slots_bytes
          ~crash_mode:Region.Words_survive_randomly ()
      in
      let off_of key = 1024 * (key + 1) in
      let pinned = List.map off_of pinned_keys in
      let locked off = List.mem off pinned in
      let resident_len off =
        List.find_map (fun (k, _, l) -> if k = off then Some l else None)
          (Backup.dump_mapping b)
      in
      (* Exhaustion is only allowed once every unpinned copy is gone. *)
      let only_pinned_left b =
        List.for_all (fun (off, _, _) -> locked off) (Backup.dump_mapping b)
      in
      let stamp = ref 0 in
      let run b (kind, key, li) =
        let off = off_of key and len = storm_lens.(li) in
        match kind with
        | 0 | 1 -> (
            (* A transaction's write: pre-image copy, in-place update, then
               propagation. *)
            match Backup.ensure_copy b ~main ~off ~len ~locked ~pressure:no_pressure with
            | () ->
                incr stamp;
                Region.fill main off len (!stamp land 0xff);
                Backup.propagate b ~main ~off ~len;
                Backup.settle b;
                true
            | exception Failure _ -> only_pinned_left b)
        | 2 -> (
            match resident_len off with
            | Some len ->
                incr stamp;
                Region.fill main off len (!stamp land 0xff);
                Backup.propagate b ~main ~off ~len;
                Backup.settle b;
                true
            | None -> true)
        | _ ->
            if not (locked off) then Backup.drop b ~off;
            true
      in
      let prefix = List.filteri (fun i _ -> i < crash_at) ops in
      let ok_before = List.for_all (run b) prefix in
      Region.crash slots;
      Region.crash table;
      let b = Backup.reopen b in
      let ok_reopened = storm_invariants b ~main in
      let ok_follow = List.for_all (run b) ops in
      ok_before && ok_reopened && ok_follow && storm_invariants b ~main)

(* Crash at every fence of a miss that evicts: a full, tight slots region
   of equal-length copies, then one newcomer or two. The first eviction
   fences once to reuse its victim's slot and once for the mapping's value
   word: two crash points. A later miss copies into the spare the first
   parked, and its only fence is the value word's: one crash point. The
   key word and the victim's tombstone are flushed only; the simulator
   makes a flushed line durable at once, so the sweep visits the states
   the x86 argument of DESIGN.md par17 admits. After each crash, in every
   crash mode, the reopened backup keeps the storm's invariants, the
   newcomer is unmapped or mapped to a current copy, and every earlier
   resident is mapped to its intact copy or gone. *)
type miss_state = {
  m_main : Region.t;
  m_slots : Region.t;
  m_table : Region.t;
  mutable m_b : Backup.t;
}

let test_backup_miss_fence_sweep () =
  let residents = [ 1024; 2048; 3072 ] in
  let ensure s off =
    Backup.ensure_copy s.m_b ~main:s.m_main ~off ~len:copy_len ~locked:(fun _ -> false)
      ~pressure:no_pressure
  in
  List.iter
    (fun (case, earlier, newcomer, points) ->
      List.iter
        (fun (mode_name, crash_mode) ->
          let setup () =
            let b, main, slots, table =
              make_dynamic_regions ~slots_bytes:tight_slots_bytes ~crash_mode ()
            in
            List.iter
              (fun off -> Region.fill main off copy_len (off / 1024))
              (residents @ earlier @ [ newcomer ]);
            Region.persist_all main;
            let s = { m_main = main; m_slots = slots; m_table = table; m_b = b } in
            List.iter (ensure s) (residents @ earlier);
            s
          in
          let ctx = Printf.sprintf "%s fence sweep, %s" case mode_name in
          let st =
            Fence_sweep.sweep ~ctx ~setup
              ~crash:(fun s -> List.iter Region.crash [ s.m_main; s.m_slots; s.m_table ])
              ~recover:(fun s -> s.m_b <- Backup.reopen s.m_b)
              ~op:(fun s -> ensure s newcomer)
              ~drain:ignore
              ~observe:(fun s ->
                match Backup.copy_matches s.m_b ~main:s.m_main ~off:newcomer with
                | None -> "newcomer unmapped"
                | Some true -> "newcomer mapped to a current copy"
                | Some false -> "newcomer mapped to a stale copy")
              ~check:(fun s here ->
                Alcotest.(check bool) (here ^ ": storm invariants") true
                  (storm_invariants s.m_b ~main:s.m_main);
                List.iter
                  (fun off ->
                    Alcotest.(check bool) (here ^ ": earlier resident intact or gone") true
                      (Backup.copy_matches s.m_b ~main:s.m_main ~off <> Some false))
                  (residents @ earlier))
              ()
          in
          Alcotest.(check int) (ctx ^ ": crash points") points st.Fence_sweep.points)
        [
          ("drop-unflushed", Region.Drop_unflushed);
          ("lines-survive", Region.Lines_survive_randomly);
          ("words-survive", Region.Words_survive_randomly);
        ])
    [ ("first-eviction", [], 4096, 2); ("spare-reuse", [ 4096 ], 5120, 1) ]

let test_backup_survives_crash () =
  let b, main = make_dynamic () in
  Region.write_string main 512 "precious";
  Region.persist_all main;
  Backup.ensure_copy b ~main ~off:512 ~len:8 ~locked:(fun _ -> false) ~pressure:no_pressure;
  (* crash the backup regions and reopen: mapping and slot content survive *)
  List.iter
    (fun (k, _, _) -> ignore k)
    (Backup.dump_mapping b);
  let b = Backup.reopen b in
  Alcotest.(check bool) "copy survives reopen" true (Backup.has_copy b ~off:512);
  Region.write_string main 512 "clobber!";
  ignore (Backup.roll_back b ~main ~off:512 ~len:8);
  Alcotest.(check string) "content restored after reopen" "precious"
    (Region.read_string main 512 8)

let () =
  Alcotest.run "core_units"
    [
      ( "locks",
        [
          Alcotest.test_case "uncontended" `Quick test_locks_uncontended;
          Alcotest.test_case "writer blocks writer" `Quick test_locks_writer_blocks_writer;
          Alcotest.test_case "reader/writer asymmetry" `Quick
            test_locks_writer_blocks_reader_not_vice_versa;
          Alcotest.test_case "release monotone" `Quick test_locks_release_is_monotone;
          Alcotest.test_case "active tracking" `Quick test_locks_active_tracking;
          Alcotest.test_case "last task" `Quick test_locks_last_task;
          Alcotest.test_case "striping is transparent" `Quick test_locks_striping;
          Alcotest.test_case "open-ended hold counts no wait" `Quick
            test_locks_open_hold_counts_no_wait;
        ] );
      ( "applier",
        [
          Alcotest.test_case "timeline" `Quick test_applier_timeline;
          Alcotest.test_case "idle gap" `Quick test_applier_idle_gap;
          Alcotest.test_case "drain one" `Quick test_applier_drain_one;
          Alcotest.test_case "batched drain" `Quick test_applier_batching;
        ] );
      ( "backup",
        [
          Alcotest.test_case "roundtrip" `Quick test_backup_roundtrip;
          Alcotest.test_case "hit counting" `Quick test_backup_hit_counting;
          Alcotest.test_case "eviction and pressure" `Quick test_backup_eviction_pressure;
          Alcotest.test_case "stale length replaced" `Quick test_backup_stale_length_replaced;
          Alcotest.test_case "resident map through a full table" `Quick
            test_backup_resident_map_full_table;
          Alcotest.test_case "survives crash" `Quick test_backup_survives_crash;
          Alcotest.test_case "full region recycles the victim's slot" `Quick
            test_backup_recycles_victim_slot;
          Alcotest.test_case "one fence per miss" `Quick test_backup_miss_fences;
          Alcotest.test_case "crash at every fence of an evicting miss" `Quick
            test_backup_miss_fence_sweep;
          Alcotest.test_case "engine: more residents than buckets" `Quick
            test_engine_full_table;
          Alcotest.test_case "engine: crash at every fence of a full-table miss" `Quick
            test_engine_full_table_fence_sweep;
        ] );
      ( "eviction policy",
        [
          Alcotest.test_case "LRU vs FIFO victim" `Quick test_backup_policy_victim;
        ] );
      ( "qcheck",
        [
          QCheck_alcotest.to_alcotest storm_qcheck;
          QCheck_alcotest.to_alcotest
            (pinned_never_evicted_qcheck Backup.Lru_policy
               "LRU: pinned copies survive eviction storms");
          QCheck_alcotest.to_alcotest
            (pinned_never_evicted_qcheck Backup.Fifo_policy
               "FIFO: pinned copies survive eviction storms");
          QCheck_alcotest.to_alcotest
            (exhaustion_iff_oversubscribed_qcheck Backup.Lru_policy
               "LRU: raises iff pinned set exceeds capacity, pressure first");
          QCheck_alcotest.to_alcotest
            (exhaustion_iff_oversubscribed_qcheck Backup.Fifo_policy
               "FIFO: raises iff pinned set exceeds capacity, pressure first");
        ] );
    ]
