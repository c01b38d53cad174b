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
   and bytes_loaded moved. *)
let expected =
  [
    ("no-logging/seed=1", "sim=74611 stores=1019 bytes_stored=10408 loads=1412 bytes_loaded=11296 flushed=193 fences=55 copied=0 heap=2548557fdb6a5ddf");
    ("no-logging/seed=2", "sim=69234 stores=1092 bytes_stored=10992 loads=1072 bytes_loaded=8576 flushed=181 fences=50 copied=0 heap=2a7893ab76fb0999");
    ("no-logging/seed=3", "sim=88579 stores=2063 bytes_stored=18480 loads=2829 bytes_loaded=22632 flushed=305 fences=58 copied=0 heap=1dd8f7d19f71bbc1");
    ("undo-logging/seed=1", "sim=1093669 stores=3783 bytes_stored=32688 loads=2453 bytes_loaded=26248 flushed=1475 fences=549 copied=10808 heap=15bb7a52914dce43");
    ("undo-logging/seed=2", "sim=887135 stores=3139 bytes_stored=26392 loads=1958 bytes_loaded=21376 flushed=1193 fences=459 copied=9704 heap=2a3b9e99e5b47915");
    ("undo-logging/seed=3", "sim=1482255 stores=5436 bytes_stored=45432 loads=3411 bytes_loaded=37656 flushed=2036 fences=737 copied=16200 heap=f41bdf358cb150a");
    ("cow/seed=1", "sim=1263268 stores=4528 bytes_stored=38648 loads=3335 bytes_loaded=39464 flushed=2109 fences=678 copied=19856 heap=15bb7a52914dce43");
    ("cow/seed=2", "sim=1030311 stores=3743 bytes_stored=31224 loads=2642 bytes_loaded=31768 flushed=1691 fences=569 copied=16352 heap=2a3b9e99e5b47915");
    ("cow/seed=3", "sim=1622873 stores=6293 bytes_stored=52288 loads=4639 bytes_loaded=57584 flushed=2902 fences=876 copied=30304 heap=f41bdf358cb150a");
    ("kamino-simple/seed=1", "sim=338323 stores=3081 bytes_stored=27072 loads=2677 bytes_loaded=21416 flushed=17132 fences=283 copied=1058616 heap=15bb7a52914dce43");
    ("kamino-simple/seed=2", "sim=330393 stores=2613 bytes_stored=22184 loads=2153 bytes_loaded=17224 flushed=17027 fences=277 copied=1056472 heap=2a3b9e99e5b47915");
    ("kamino-simple/seed=3", "sim=348099 stores=4404 bytes_stored=37176 loads=2933 bytes_loaded=23464 flushed=17306 fences=326 copied=1062024 heap=f41bdf358cb150a");
    ("kamino-dynamic/seed=1", "sim=276402 stores=2148 bytes_stored=85136 loads=61406 bytes_loaded=491248 flushed=1913 fences=337 copied=13304 heap=15bb7a52914dce43");
    ("kamino-dynamic/seed=2", "sim=272618 stores=1942 bytes_stored=82344 loads=60654 bytes_loaded=485232 flushed=1803 fences=341 copied=10712 heap=2a3b9e99e5b47915");
    ("kamino-dynamic/seed=3", "sim=137490 stores=2938 bytes_stored=90976 loads=4785 bytes_loaded=38280 flushed=2056 fences=360 copied=16232 heap=f41bdf358cb150a");
    ("intent-only/seed=1", "sim=103085 stores=2772 bytes_stored=24432 loads=2145 bytes_loaded=17160 flushed=519 fences=254 copied=0 heap=2548557fdb6a5ddf");
    ("intent-only/seed=2", "sim=93790 stores=2411 bytes_stored=21544 loads=1660 bytes_loaded=13280 flushed=466 fences=227 copied=0 heap=2a7893ab76fb0999");
    ("intent-only/seed=3", "sim=122527 stores=4948 bytes_stored=41560 loads=3861 bytes_loaded=30888 flushed=661 fences=275 copied=0 heap=1dd8f7d19f71bbc1");
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
   and st stayed identical, and only sim, fl, fe and cp moved. *)
let expected_sharded =
  [
    ("sharded/seed=1", "s0{sim=464821 st=3482 fl=19773 fe=731 cp=1123608 heap=226b0fa79fc90eb2} s1{sim=464422 st=3539 fl=19807 fe=762 cp=1123128 heap=19d9125e5804b2d5} s2{sim=467303 st=2944 fl=19278 fe=558 cp=1113728 heap=1a9d3e4ccd5bbed6} s3{sim=455782 st=2726 fl=19045 fe=513 cp=1108624 heap=29dddcee379e681c}");
    ("sharded/seed=2", "s0{sim=466621 st=3562 fl=19858 fe=754 cp=1126168 heap=226b0fa79fc90eb2} s1{sim=460268 st=3413 fl=19713 fe=721 cp=1123064 heap=19d9125e5804b2d5} s2{sim=469626 st=3016 fl=19340 fe=572 cp=1114672 heap=1a9d3e4ccd5bbed6} s3{sim=459630 st=2859 fl=19170 fe=555 cp=1111536 heap=29dddcee379e681c}");
    ("sharded/seed=3", "s0{sim=465094 st=3451 fl=19731 fe=727 cp=1122024 heap=226b0fa79fc90eb2} s1{sim=463291 st=3471 fl=19742 fe=732 cp=1122024 heap=19d9125e5804b2d5} s2{sim=467712 st=2963 fl=19300 fe=558 cp=1114480 heap=1a9d3e4ccd5bbed6} s3{sim=453473 st=2606 fl=18903 fe=473 cp=1103824 heap=29dddcee379e681c}");
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
