(* Differential refactor oracle for the engine-variant extraction.

   Every engine kind runs the same seeded workload mix (transactions,
   aborts where the kind supports them, crash/recover cycles between
   transactions) and is then reduced to a fingerprint: the final simulated
   nanosecond, the aggregate NVM counters over every region of the stack,
   and an FNV-1a hash of the main heap's byte image. The expected values
   below were recorded on the pre-refactor monolithic engine.ml; the
   extracted variant modules must reproduce them bit-for-bit — any drift
   in a single flush, fence, copied byte or simulated nanosecond fails
   the suite.

   Regenerate (only when a PR deliberately changes modelled behavior)
   with:  KAMINO_ORACLE_PRINT=1 dune exec test/test_variant_oracle.exe *)

module Rng = Kamino_sim.Rng
module Region = Kamino_nvm.Region
module Heap = Kamino_heap.Heap
module Engine = Kamino_core.Engine
module Backup = Kamino_core.Backup
module Shard = Kamino_shard.Shard
module Shard_kv = Kamino_shard.Shard_kv
module Shard_driver = Kamino_shard.Shard_driver

let config =
  {
    Engine.default_config with
    Engine.heap_bytes = 1 lsl 20;
    log_slots = 16;
    data_log_bytes = 1 lsl 18;
  }

(* Kind table: name, builder, whether the kind can roll back locally. *)
let kinds =
  [
    ("no-logging", Engine.No_logging, false);
    ("undo-logging", Engine.Undo_logging, true);
    ("cow", Engine.Cow, true);
    ("kamino-simple", Engine.Kamino_simple, true);
    ( "kamino-dynamic",
      Engine.Kamino_dynamic { alpha = 0.3; policy = Backup.Lru_policy },
      true );
    ("intent-only", Engine.Intent_only, false);
  ]

let seeds = [ 1; 2; 3 ]

let stamp_object tx p size stamp =
  for w = 0 to (size / 8) - 1 do
    Engine.write_int64 tx p (w * 8) stamp
  done

(* One committed transaction: allocs, whole-object and field-granular
   updates, frees — the same op shapes the crash matrix drives. *)
let committed_tx rng e live =
  Engine.with_tx e (fun tx ->
      let n_ops = 1 + Rng.int rng 3 in
      for _ = 1 to n_ops do
        match Rng.int rng 10 with
        | 0 | 1 ->
            let size = [| 32; 64; 256 |].(Rng.int rng 3) in
            let p = Engine.alloc tx size in
            stamp_object tx p size (Rng.int64 rng);
            live := (p, size) :: !live
        | 2 when !live <> [] ->
            let ps = List.sort compare !live in
            let p, _ = List.nth ps (Rng.int rng (List.length ps)) in
            Engine.free tx p;
            live := List.filter (fun (q, _) -> q <> p) !live
        | _ when !live <> [] ->
            let ps = List.sort compare !live in
            let p, size = List.nth ps (Rng.int rng (List.length ps)) in
            if Rng.bool rng then
              for w = 0 to (size / 8) - 1 do
                Engine.add_field tx p (w * 8) 8
              done
            else Engine.add tx p;
            stamp_object tx p size (Rng.int64 rng)
        | _ -> ()
      done)

let aborted_tx rng e live =
  let tx = Engine.begin_tx e in
  (match List.sort compare !live with
  | [] -> ignore (Engine.alloc tx 64)
  | ps ->
      let p, size = List.nth ps (Rng.int rng (List.length ps)) in
      Engine.add tx p;
      stamp_object tx p size (Rng.int64 rng));
  Engine.abort tx

let run_workload kind can_abort seed =
  let e = Engine.create ~config ~kind ~seed () in
  let rng = Rng.create (seed * 7919) in
  let live = ref [] in
  for _round = 1 to 60 do
    match Rng.int rng 12 with
    | 0 when can_abort -> aborted_tx rng e live
    | 1 ->
        (* Crash between transactions, then recover. Deterministic: torn
           lines are drawn from the engine's own split RNGs. *)
        Engine.crash e;
        Engine.recover e;
        live := List.filter (fun (p, _) -> Heap.is_allocated (Engine.heap e) p) !live
    | _ -> committed_tx rng e live
  done;
  Engine.drain_backup e;
  e

(* FNV-1a over the main heap's volatile byte image (equals the persistent
   image after the final drain for every durable range we care about; what
   matters is that it is deterministic and covers every byte). *)
let heap_hash e =
  let r = Engine.main_region e in
  let h = ref 0x3bf29ce484222325 in
  let chunk = 4096 in
  let size = Region.size r in
  let off = ref 0 in
  while !off < size do
    let len = min chunk (size - !off) in
    let b = Region.read_bytes r !off len in
    for i = 0 to len - 1 do
      h := (!h lxor Char.code (Bytes.get b i)) * 0x100000001b3
    done;
    off := !off + len
  done;
  !h land max_int

let fingerprint kind can_abort seed =
  let e = run_workload kind can_abort seed in
  (* Counters and sim-ns first: hashing the heap performs loads. *)
  let sim = Engine.now e in
  let c = Engine.main_counters e in
  Printf.sprintf
    "sim=%d stores=%d bytes_stored=%d loads=%d bytes_loaded=%d flushed=%d \
     fences=%d copied=%d heap=%x"
    sim c.Region.stores c.Region.bytes_stored c.Region.loads c.Region.bytes_loaded
    c.Region.lines_flushed c.Region.fences c.Region.bytes_copied (heap_hash e)

(* Recorded on the pre-refactor monolithic engine. The kamino-dynamic
   cells were re-recorded when the dynamic backup's slots became
   right-sized and volatile: heap= and copied= stayed identical, and only
   allocator and recovery work moved. The kamino-simple cells were
   re-recorded when the applier began copying only dirty lines and
   fencing once per batch, and recovery once per record: heap= and every
   other kind's cell stayed identical, and only sim, flushed, fences and
   copied moved. The kamino-dynamic cells were re-recorded again when a
   miss stopped fencing its copy on its own (the mapping's value fence
   orders it), the insert after a find_or miss stopped re-probing, and the
   dynamic applier began fencing once per batch: only sim, fences, loads
   and bytes_loaded moved. Every cell was re-recorded when the heap went
   to four size classes per power of two (51 free-list heads, a 512-byte
   metadata block): heap= moved everywhere but still agrees across the
   kinds of each seed, and format's 37 extra head words account for most
   of the stores and flushed lines. The kamino-dynamic cells were
   re-recorded again when a miss's mapping key word began riding the
   intent-log barrier instead of a fence of its own: only fences fell
   (337, 341 and 360 to 311, 315 and 342), and sim by fence_ns for each.
   They were re-recorded again when hits, propagation, roll-back and drop
   began reading the backup's DRAM resident map instead of probing the
   look-up table, and evictions began tombstoning the bucket a node
   remembers: only sim, loads and bytes_loaded moved (seed 1: sim 273948
   to 261179, loads 61413 to 61013). The intent-only cells were
   re-recorded when a commit stopped writing its record's Committed mark,
   which no recovery path reads: each committing write transaction lost
   one 8-byte store, one flushed line and one fence (seed 1: fences 254
   to 200, sim 103225 to 97263); heap= did not move. The Kamino cells
   were re-recorded when a commit began sealing its mark with a checksum
   of the write set under the write set's own fence: each sealed commit
   lost one fence and loads its logged ranges once (seed 1 simple: fences
   283 to 235, loads 2684 to 2836, sim 338468 to 334625); stores, copied
   and heap= did not move. The kamino-dynamic cells' flushed also rose (6,
   10 and 2 lines) when a missing declare began flushing its intent entry
   ahead of the miss. Every cell was re-recorded when the allocator's
   state became volatile (heap layout 3): no bump word or free-list head
   in any image or write set, and no free-list link, so heap= moved
   everywhere (still one value per seed across the kinds) and stores,
   loads, flushed lines and fences fell (seed 1 undo: fences 549 to 518,
   loads 2460 to 1914). A transaction still reuses an extent it freed
   for its next allocation of that class, as with the free lists in NVM;
   copied fell with the bump word's snapshots (seed 1 undo 10808 to
   10560). *)
let expected =
  [
    ("no-logging/seed=1", "sim=72179 stores=950 bytes_stored=9856 loads=943 bytes_loaded=7544 flushed=153 fences=55 copied=0 heap=2ceb8e7d526ac105");
    ("no-logging/seed=2", "sim=67570 stores=1048 bytes_stored=10640 loads=736 bytes_loaded=5888 flushed=152 fences=50 copied=0 heap=34e6b2e92790a742");
    ("no-logging/seed=3", "sim=85729 stores=2114 bytes_stored=18888 loads=1867 bytes_loaded=14936 flushed=287 fences=58 copied=0 heap=3b95e1161d368e6a");
    ("undo-logging/seed=1", "sim=1019466 stores=3579 bytes_stored=31056 loads=1914 bytes_loaded=21936 flushed=1357 fences=518 copied=10560 heap=21147266c6357297");
    ("undo-logging/seed=2", "sim=812239 stores=2944 bytes_stored=24832 loads=1488 bytes_loaded=17544 flushed=1080 fences=429 copied=9376 heap=b6a6acd6d0c2c4c");
    ("undo-logging/seed=3", "sim=1418512 stores=5338 bytes_stored=44648 loads=2677 bytes_loaded=31976 flushed=1948 fences=710 copied=16176 heap=1c18d42cfe8424c6");
    ("cow/seed=1", "sim=1120115 stores=4169 bytes_stored=35776 loads=2734 bytes_loaded=34656 flushed=1919 fences=616 copied=19360 heap=21147266c6357297");
    ("cow/seed=2", "sim=895629 stores=3412 bytes_stored=28576 loads=2116 bytes_loaded=27416 flushed=1509 fences=512 copied=15728 heap=b6a6acd6d0c2c4c");
    ("cow/seed=3", "sim=1509116 stores=6076 bytes_stored=50552 loads=3851 bytes_loaded=51664 flushed=2752 fences=826 copied=30256 heap=1c18d42cfe8424c6");
    ("kamino-simple/seed=1", "sim=331326 stores=2908 bytes_stored=25688 loads=2235 bytes_loaded=29712 flushed=17053 fences=229 copied=1058368 heap=21147266c6357297");
    ("kamino-simple/seed=2", "sim=323318 stores=2448 bytes_stored=20864 loads=1747 bytes_loaded=21160 flushed=16950 fences=230 copied=1056192 heap=b6a6acd6d0c2c4c");
    ("kamino-simple/seed=3", "sim=340177 stores=4336 bytes_stored=36632 loads=2294 bytes_loaded=31968 flushed=17238 fences=265 copied=1061968 heap=1c18d42cfe8424c6");
    ("kamino-dynamic/seed=1", "sim=250751 stores=1967 bytes_stored=83688 loads=60143 bytes_loaded=493360 flushed=1807 fences=253 copied=13024 heap=21147266c6357297");
    ("kamino-dynamic/seed=2", "sim=245778 stores=1763 bytes_stored=80912 loads=59545 bytes_loaded=483536 flushed=1710 fences=260 copied=10352 heap=b6a6acd6d0c2c4c");
    ("kamino-dynamic/seed=3", "sim=113188 stores=2871 bytes_stored=90440 loads=3186 bytes_loaded=38136 flushed=1977 fences=277 copied=16160 heap=1c18d42cfe8424c6");
    ("intent-only/seed=1", "sim=93795 stores=2493 bytes_stored=22200 loads=1602 bytes_loaded=12816 flushed=407 fences=198 copied=0 heap=2ceb8e7d526ac105");
    ("intent-only/seed=2", "sim=86146 stores=2214 bytes_stored=19968 loads=1272 bytes_loaded=10176 flushed=376 fences=177 copied=0 heap=34e6b2e92790a742");
    ("intent-only/seed=3", "sim=112534 stores=4838 bytes_stored=40680 loads=2847 bytes_loaded=22776 flushed=564 fences=215 copied=0 heap=3b95e1161d368e6a");
  ]

(* --- sharded parallel oracle ------------------------------------------------ *)

(* The same recorded-fingerprint discipline, one level up: a 4-shard façade
   driven by the domain executor. The cell is fingerprinted per shard (sim
   ns, NVM counters, heap image hash) and must match the recorded value at
   EVERY domain count — so the parallel executor is pinned to the sequential
   baseline, and both are pinned across refactors. *)
let sharded_payload = String.make 200 'p'

let sharded_fingerprint ~domains seed =
  let shards = 4 and clients = 6 and total_ops = 600 and records = 256 in
  let s = Shard.create ~config ~kind:Engine.Kamino_simple ~seed ~shards () in
  let kv = Shard_kv.create s ~value_size:256 ~node_size:1024 in
  for k = 0 to records - 1 do
    Shard_kv.put kv k sharded_payload
  done;
  Shard.drain_backups s;
  let own = Array.make shards [] in
  for k = records - 1 downto 0 do
    own.(Shard.route s k) <- k :: own.(Shard.route s k)
  done;
  let own = Array.map Array.of_list own in
  let rngs = Array.init clients (fun c -> Rng.create ((seed * 131) + c)) in
  ignore
    (Shard_driver.run ~domains ~shard:s ~clients ~total_ops
       ~step:(fun ~client ~shard_id () ->
         let keys = own.(shard_id) in
         let rng = rngs.(client) in
         let k = keys.(Rng.int rng (Array.length keys)) in
         let store = Shard_kv.store kv shard_id in
         if Rng.int rng 100 < 50 then begin
           ignore (Kamino_kv.Kv.get store k);
           "read"
         end
         else begin
           Kamino_kv.Kv.put store k sharded_payload;
           "update"
         end)
       ());
  String.concat " "
    (List.init shards (fun i ->
         let e = Shard.engine s i in
         let sim = Engine.now e in
         let c = Engine.main_counters e in
         Printf.sprintf "s%d{sim=%d st=%d fl=%d fe=%d cp=%d heap=%x}" i sim
           c.Region.stores c.Region.lines_flushed c.Region.fences
           c.Region.bytes_copied (heap_hash e)))

(* Recorded at domains=1; asserted at every domain count below. Re-recorded
   when B+Tree inserts began declaring their leaf and descriptor ahead of
   the value allocation (one barrier per insert): heap= and cp= stayed
   identical, and only sim, st, fl and fe moved. Re-recorded again for
   dirty-line propagation with one backup fence per applied batch: heap=
   and st stayed identical, and only sim, fl, fe and cp moved. Re-recorded
   for four heap size classes per power of two: 256 B values take 320 B
   extents instead of 528 B, so heap= and every counter moved.
   Re-recorded when the B+Tree stopped persisting its key count: heap=
   moved (the descriptor's count word stays 0), st, fl and cp fell (an
   insert no longer writes, declares or propagates the descriptor), and
   fe rose by one on the shards whose root split (the split now declares
   the descriptor itself, behind one more barrier). Re-recorded when
   commits began sealing their mark under the write set's fence: fe fell
   on every shard (seed 1, s0: 732 to 572) and sim with it; heap= stayed
   identical. Two shards' st, fl and cp moved slightly (s1 of seed 1 and
   s0 of seed 2: st +3, fl +5, cp +256): the shorter commits shift the
   clients' interleaving, and with it how the applier batches.
   Re-recorded when the allocator's state became volatile: heap= moved
   (no allocator words), st, fl and cp fell (an insert no longer declares,
   writes or propagates the bump word), fe did not move. *)
let expected_sharded =
  [
    ("sharded/seed=1", "s0{sim=448107 st=2875 fl=19061 fe=572 cp=1107528 heap=2fe1ce2068a4bd85} s1{sim=447381 st=2955 fl=19122 fe=596 cp=1107800 heap=1665d4d18cdbab07} s2{sim=450213 st=2327 fl=18555 fe=442 cp=1097400 heap=3c9a1ea8d412da91} s3{sim=439755 st=2146 fl=18361 fe=404 cp=1093240 heap=497c487fcda484a}");
    ("sharded/seed=2", "s0{sim=449850 st=2958 fl=19151 fe=593 cp=1110344 heap=2fe1ce2068a4bd85} s1{sim=444097 st=2826 fl=19023 fe=565 cp=1107480 heap=1665d4d18cdbab07} s2{sim=452046 st=2399 fl=18617 fe=450 cp=1098344 heap=3c9a1ea8d412da91} s3{sim=442787 st=2279 fl=18486 fe=436 cp=1096152 heap=497c487fcda484a}");
    ("sharded/seed=3", "s0{sim=448290 st=2844 fl=19019 fe=569 cp=1105944 heap=2fe1ce2068a4bd85} s1{sim=446506 st=2884 fl=19052 fe=569 cp=1106440 heap=1665d4d18cdbab07} s2{sim=450540 st=2346 fl=18577 fe=441 cp=1098152 heap=3c9a1ea8d412da91} s3{sim=437935 st=2026 fl=18219 fe=370 cp=1088440 heap=497c487fcda484a}");
  ]

let all_cells () =
  List.concat_map
    (fun (name, kind, can_abort) ->
      List.map
        (fun seed ->
          (Printf.sprintf "%s/seed=%d" name seed, fingerprint kind can_abort seed))
        seeds)
    kinds

let () =
  if Sys.getenv_opt "KAMINO_ORACLE_PRINT" <> None then begin
    List.iter
      (fun (cell, fp) -> Printf.printf "    (%S, %S);\n" cell fp)
      (all_cells ());
    List.iter
      (fun seed ->
        Printf.printf "    (%S, %S);\n"
          (Printf.sprintf "sharded/seed=%d" seed)
          (sharded_fingerprint ~domains:1 seed))
      seeds;
    exit 0
  end;
  let cases =
    List.map
      (fun (name, kind, can_abort) ->
        Alcotest.test_case name `Quick (fun () ->
            List.iter
              (fun seed ->
                let cell = Printf.sprintf "%s/seed=%d" name seed in
                let got = fingerprint kind can_abort seed in
                match List.assoc_opt cell expected with
                | None -> Alcotest.failf "%s: no recorded fingerprint" cell
                | Some want ->
                    if got <> want then
                      Alcotest.failf
                        "%s: fingerprint drifted\n  recorded: %s\n  current:  %s" cell
                        want got)
              seeds))
      kinds
  in
  let sharded_case =
    Alcotest.test_case "sharded-parallel" `Quick (fun () ->
        List.iter
          (fun seed ->
            let cell = Printf.sprintf "sharded/seed=%d" seed in
            match List.assoc_opt cell expected_sharded with
            | None -> Alcotest.failf "%s: no recorded fingerprint" cell
            | Some want ->
                List.iter
                  (fun domains ->
                    let got = sharded_fingerprint ~domains seed in
                    if got <> want then
                      Alcotest.failf
                        "%s at domains=%d: fingerprint drifted\n\
                        \  recorded: %s\n\
                        \  current:  %s" cell domains want got)
                  [ 1; 3 ])
          seeds)
  in
  Alcotest.run "variant_oracle"
    [ ("fingerprints", cases); ("sharded", [ sharded_case ]) ]
