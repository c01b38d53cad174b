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
   ahead of the miss. *)
let expected =
  [
    ("no-logging/seed=1", "sim=74751 stores=1056 bytes_stored=10704 loads=1417 bytes_loaded=11336 flushed=198 fences=55 copied=0 heap=2069efb6e70cd527");
    ("no-logging/seed=2", "sim=69375 stores=1129 bytes_stored=11288 loads=1077 bytes_loaded=8616 flushed=186 fences=50 copied=0 heap=13deed71d51cb41a");
    ("no-logging/seed=3", "sim=88723 stores=2100 bytes_stored=18776 loads=2832 bytes_loaded=22656 flushed=311 fences=58 copied=0 heap=147adbebe2c787fb");
    ("undo-logging/seed=1", "sim=1093814 stores=3820 bytes_stored=32984 loads=2460 bytes_loaded=26304 flushed=1480 fences=549 copied=10808 heap=3402600e0d667a7c");
    ("undo-logging/seed=2", "sim=887281 stores=3176 bytes_stored=26688 loads=1965 bytes_loaded=21432 flushed=1198 fences=459 copied=9704 heap=2781a7a1d38069ae");
    ("undo-logging/seed=3", "sim=1482392 stores=5473 bytes_stored=45728 loads=3411 bytes_loaded=37656 flushed=2042 fences=737 copied=16200 heap=1bb003283a02d882");
    ("cow/seed=1", "sim=1263414 stores=4565 bytes_stored=38944 loads=3342 bytes_loaded=39520 flushed=2114 fences=678 copied=19856 heap=3402600e0d667a7c");
    ("cow/seed=2", "sim=1030457 stores=3780 bytes_stored=31520 loads=2649 bytes_loaded=31824 flushed=1696 fences=569 copied=16352 heap=2781a7a1d38069ae");
    ("cow/seed=3", "sim=1623009 stores=6330 bytes_stored=52584 loads=4639 bytes_loaded=57584 flushed=2908 fences=876 copied=30304 heap=1bb003283a02d882");
    ("kamino-simple/seed=1", "sim=334625 stores=3118 bytes_stored=27368 loads=2836 bytes_loaded=34520 flushed=17138 fences=235 copied=1058616 heap=3402600e0d667a7c");
    ("kamino-simple/seed=2", "sim=326973 stores=2650 bytes_stored=22480 loads=2272 bytes_loaded=25432 flushed=17033 fences=235 copied=1056472 heap=2781a7a1d38069ae");
    ("kamino-simple/seed=3", "sim=343682 stores=4441 bytes_stored=37472 loads=3049 bytes_loaded=37840 flushed=17313 fences=271 copied=1062024 heap=1bb003283a02d882");
    ("kamino-dynamic/seed=1", "sim=257396 stores=2185 bytes_stored=85432 loads=61163 bytes_loaded=501520 flushed=1924 fences=263 copied=13304 heap=3402600e0d667a7c");
    ("kamino-dynamic/seed=2", "sim=254263 stores=1979 bytes_stored=82640 loads=60404 bytes_loaded=490480 flushed=1818 fences=273 copied=10712 heap=2781a7a1d38069ae");
    ("kamino-dynamic/seed=3", "sim=120135 stores=2975 bytes_stored=91272 loads=4474 bytes_loaded=48288 flushed=2064 fences=287 copied=16232 heap=1bb003283a02d882");
    ("intent-only/seed=1", "sim=97263 stores=2755 bytes_stored=24296 loads=2150 bytes_loaded=17200 flushed=470 fences=200 copied=0 heap=2069efb6e70cd527");
    ("intent-only/seed=2", "sim=88522 stores=2399 bytes_stored=21448 loads=1665 bytes_loaded=13320 flushed=422 fences=178 copied=0 heap=13deed71d51cb41a");
    ("intent-only/seed=3", "sim=116378 stores=4928 bytes_stored=41400 loads=3864 bytes_loaded=30912 flushed=610 fences=218 copied=0 heap=147adbebe2c787fb");
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
   clients' interleaving, and with it how the applier batches. *)
let expected_sharded =
  [
    ("sharded/seed=1", "s0{sim=452888 st=3261 fl=19263 fe=572 cp=1108056 heap=204575df342412d5} s1{sim=452041 st=3331 fl=19318 fe=596 cp=1108312 heap=eb55dbf339d4289} s2{sim=455061 st=2718 fl=18760 fe=442 cp=1097936 heap=1eb6bf8f08051f77} s3{sim=444298 st=2515 fl=18554 fe=404 cp=1093744 heap=16a364e460966d36}");
    ("sharded/seed=2", "s0{sim=454629 st=3344 fl=19353 fe=593 cp=1110872 heap=204575df342412d5} s1{sim=448735 st=3202 fl=19219 fe=565 cp=1107992 heap=eb55dbf339d4289} s2{sim=456908 st=2790 fl=18822 fe=450 cp=1098880 heap=1eb6bf8f08051f77} s3{sim=447354 st=2648 fl=18679 fe=436 cp=1096656 heap=16a364e460966d36}");
    ("sharded/seed=3", "s0{sim=453071 st=3230 fl=19221 fe=569 cp=1106472 heap=204575df342412d5} s1{sim=451156 st=3260 fl=19248 fe=569 cp=1106952 heap=eb55dbf339d4289} s2{sim=455392 st=2737 fl=18782 fe=441 cp=1098688 heap=1eb6bf8f08051f77} s3{sim=442464 st=2395 fl=18412 fe=370 cp=1088944 heap=16a364e460966d36}");
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
