(* Storage-accounting property test: the paper's Table 1 space claims.

   Kamino-Tx-Simple doubles the heap (main + full backup) plus logs;
   Kamino-Tx-Dynamic caps the backup at alpha * heap plus metadata (the
   slot arena and the persistent look-up table). [Engine.storage_bytes]
   sums every region of the stack, so the claims become exact equalities
   against independently computed component sizes — and they must hold
   not just at construction but after arbitrary committed work, aborts,
   crashes and recoveries (regions never grow behind the model's back). *)

module Rng = Kamino_sim.Rng
module Engine = Kamino_core.Engine
module Backup = Kamino_core.Backup
module Intent_log = Kamino_core.Intent_log
module Phash = Kamino_core.Phash

let config heap_bytes =
  {
    Engine.default_config with
    Engine.heap_bytes;
    log_slots = 16;
    data_log_bytes = 1 lsl 18;
  }

(* The intent-log region size the engine builds for [cfg] (same constants
   as Engine.create: 8 user threads). *)
let ilog_bytes cfg =
  Intent_log.required_size ~max_user_threads:8
    ~max_tx_entries:cfg.Engine.max_tx_entries ~n_slots:cfg.Engine.log_slots

(* The intent log and the look-up table, sized by the rule the engine
   uses. *)
let dynamic_metadata_bytes cfg ~alpha =
  let _, capacity = Backup.dynamic_sizing ~alpha ~heap_bytes:cfg.Engine.heap_bytes in
  ilog_bytes cfg + Phash.required_size ~capacity

(* Churn an engine: committed puts/frees, an abort, a crash + recovery.
   Storage accounting must be invariant under all of it. *)
let churn e seed =
  let rng = Rng.create seed in
  let live = ref [] in
  for round = 1 to 40 do
    (match Rng.int rng 10 with
    | 0 when !live <> [] ->
        Engine.with_tx e (fun tx ->
            let p = List.nth !live (Rng.int rng (List.length !live)) in
            Engine.free tx p;
            live := List.filter (fun q -> q <> p) !live)
    | 1 ->
        let tx = Engine.begin_tx e in
        let p = Engine.alloc tx 128 in
        Engine.write_int64 tx p 0 (Rng.int64 rng);
        Engine.abort tx
    | _ ->
        Engine.with_tx e (fun tx ->
            let size = [| 64; 256; 1024 |].(Rng.int rng 3) in
            let p = Engine.alloc tx size in
            for w = 0 to (size / 8) - 1 do
              Engine.write_int64 tx p (w * 8) (Rng.int64 rng)
            done;
            live := p :: !live));
    if round mod 13 = 0 then begin
      Engine.crash e;
      Engine.recover e
    end
  done;
  Engine.drain_backup e

let heaps = [ 1 lsl 20; 1 lsl 21 ]

let seeds = [ 1; 2; 3 ]

let check_simple () =
  List.iter
    (fun heap_bytes ->
      let cfg = config heap_bytes in
      let logs = ilog_bytes cfg in
      List.iter
        (fun seed ->
          let e = Engine.create ~config:cfg ~kind:Engine.Kamino_simple ~seed () in
          let claim context =
            let got = Engine.storage_bytes e in
            Alcotest.(check int)
              (Printf.sprintf "simple heap=%d seed=%d %s: 2x heap + logs" heap_bytes
                 seed context)
              ((2 * heap_bytes) + logs)
              got
          in
          claim "fresh";
          churn e seed;
          claim "after churn")
        seeds)
    heaps

let check_dynamic () =
  List.iter
    (fun heap_bytes ->
      let cfg = config heap_bytes in
      List.iter
        (fun alpha ->
          let metadata = dynamic_metadata_bytes cfg ~alpha in
          let budget =
            int_of_float ((1.0 +. alpha) *. float_of_int heap_bytes) + metadata
          in
          List.iter
            (fun seed ->
              let e =
                Engine.create ~config:cfg
                  ~kind:(Engine.Kamino_dynamic { alpha; policy = Backup.Lru_policy })
                  ~seed ()
              in
              let claim context =
                let got = Engine.storage_bytes e in
                if got > budget then
                  Alcotest.failf
                    "dynamic alpha=%.2f heap=%d seed=%d %s: %d bytes exceeds (1 + \
                     alpha) * heap + metadata = %d"
                    alpha heap_bytes seed context got budget;
                (* The bound must also be tight: the backup arena really is
                   alpha-sized, not secretly smaller. *)
                if got < heap_bytes + int_of_float (alpha *. float_of_int heap_bytes)
                then
                  Alcotest.failf
                    "dynamic alpha=%.2f heap=%d seed=%d %s: %d bytes is below heap \
                     + alpha * heap — arena undersized"
                    alpha heap_bytes seed context got
              in
              claim "fresh";
              churn e seed;
              claim "after churn";
              match Engine.verify_backup e with
              | Ok () -> ()
              | Error err ->
                  Alcotest.failf "dynamic alpha=%.2f seed=%d: %s" alpha seed err)
            seeds)
        [ 0.1; 0.25; 0.5; 0.75; 1.0 ])
    heaps

(* The dynamic backup's one sizing rule: a slot heap of alpha * heap, at
   least 64 KiB, and one bucket per 128 slot bytes, at least 1024, in a
   table region of exactly [Phash.required_size]. The cases are the slot
   floor, the scaled Fig 16 heap (48 MiB at alpha 0.1) and the suite's
   full-scale ycsb-a-uniform-dyn table. *)
let check_dynamic_sizing () =
  List.iter
    (fun (alpha, heap_bytes, slots, capacity, table_bytes) ->
      let what = Printf.sprintf "alpha=%.2f heap=%d" alpha heap_bytes in
      Alcotest.(check (pair int int))
        (what ^ ": slot bytes, buckets")
        (slots, capacity)
        (Backup.dynamic_sizing ~alpha ~heap_bytes);
      Alcotest.(check int) (what ^ ": table region") table_bytes
        (Phash.required_size ~capacity))
    [
      (0.1, 1 lsl 16, 65_536, 1024, 16_448);
      (0.5, 1 lsl 16, 65_536, 1024, 16_448);
      (0.1, 48 lsl 20, 5_033_164, 39_321, 1_048_640);
      (0.5, 128 lsl 20, 67_108_864, 524_288, 8_388_672);
    ]

(* Promotion (Intent_only -> Kamino-simple head) adds exactly one full
   backup region: the before/after delta is the heap size, nothing else. *)
let check_promotion () =
  let heap_bytes = 1 lsl 20 in
  let cfg = config heap_bytes in
  let e = Engine.create ~config:cfg ~kind:Engine.Intent_only ~seed:7 () in
  let before = Engine.storage_bytes e in
  Alcotest.(check int) "intent-only: heap + logs" (heap_bytes + ilog_bytes cfg) before;
  Engine.promote_to_kamino e;
  Alcotest.(check int) "promotion adds one heap-sized backup" (before + heap_bytes)
    (Engine.storage_bytes e)

let () =
  Alcotest.run "storage"
    [
      ( "accounting",
        [
          Alcotest.test_case "kamino-simple = 2x heap + logs" `Quick check_simple;
          Alcotest.test_case "kamino-dynamic <= (1+alpha) heap + metadata" `Quick
            check_dynamic;
          Alcotest.test_case "promotion adds exactly one backup" `Quick
            check_promotion;
          Alcotest.test_case "kamino-dynamic sizing rule" `Quick check_dynamic_sizing;
        ] );
    ]
