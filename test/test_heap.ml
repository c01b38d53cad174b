(* Tests for the persistent object heap: allocation, free lists, roots,
   reopening, structural validation, and crashes at every fence of the
   transactions that allocate and free. *)

module Rng = Kamino_sim.Rng
module Clock = Kamino_sim.Clock
module Region = Kamino_nvm.Region
module Heap = Kamino_heap.Heap
module Engine = Kamino_core.Engine

let make ?(size = 1 lsl 20) () =
  let clock = Clock.create () in
  let r =
    Region.create ~crash_mode:Region.Drop_unflushed ~rng:(Rng.create 1) ~clock ~size ()
  in
  (Heap.format r, r)

let test_alloc_basic () =
  let h, _ = make () in
  let p = Heap.alloc h 100 in
  Alcotest.(check bool) "non-null" true (p <> Heap.null);
  Alcotest.(check bool) "allocated" true (Heap.is_allocated h p);
  Alcotest.(check int) "rounded to class" 112 (Heap.capacity h p);
  Alcotest.(check int) "one live object" 1 (Heap.live_objects h)

let test_alloc_zeroed () =
  let h, r = make () in
  let p = Heap.alloc h 64 in
  Region.write_string r p "garbage!";
  Heap.free h p;
  let q = Heap.alloc h 64 in
  Alcotest.(check int) "reused slot" p q;
  Alcotest.(check string) "payload zeroed on reuse"
    (String.make 8 '\000')
    (Region.read_string r q 8)

let test_alloc_size_classes () =
  let h, _ = make () in
  List.iter
    (fun (req, expect) ->
      let p = Heap.alloc h req in
      Alcotest.(check int) (Printf.sprintf "capacity for %d" req) expect (Heap.capacity h p))
    [
      (1, 32);
      (32, 32);
      (33, 48);
      (72, 80);
      (129, 160);
      (264, 320);
      (1000, 1024);
      (1024, 1024);
      (1025, 1280);
      (1032, 1280);
      (1793, 2048);
    ]

(* The arithmetic lookup against the table itself, for every request size:
   [class_of_size] is the first entry that holds the size, and
   [is_class_size] is table membership. *)
let test_class_lookup () =
  let classes = Heap.size_classes in
  Alcotest.(check int) "51 classes" 51 (Array.length classes);
  Alcotest.(check int) "last class is the largest object" Heap.max_object_size
    classes.(Array.length classes - 1);
  let first = ref 0 in
  for size = 1 to Heap.max_object_size do
    while classes.(!first) < size do
      incr first
    done;
    let got = Heap.class_of_size size in
    if got <> !first then Alcotest.failf "class_of_size %d = %d, table says %d" size got !first;
    let member = classes.(!first) = size in
    if Heap.is_class_size size <> member then
      Alcotest.failf "is_class_size %d = %b, table says %b" size (not member) member
  done;
  List.iter
    (fun n ->
      if Heap.is_class_size n then Alcotest.failf "is_class_size %d outside the table" n)
    [ 0; -16; -262144; Heap.max_object_size + 16; 2 * Heap.max_object_size; max_int; min_int ]

(* The table's shape, probed at random sizes: the class picked for a size
   and its predecessor are multiples of 16, strictly increasing, and the
   picked class wastes under 16 B up to 128 B and at most 20% above. *)
let class_table_qcheck =
  QCheck.Test.make ~name:"size classes: increasing, 16 B multiples, bounded waste" ~count:500
    QCheck.(int_range 17 Heap.max_object_size)
    (fun size ->
      let cls = Heap.class_of_size size in
      let c = Heap.size_classes.(cls) in
      let prev = if cls = 0 then 16 else Heap.size_classes.(cls - 1) in
      let waste = c - size in
      c mod 16 = 0 && prev mod 16 = 0 && prev < size && size <= c
      && if c <= 128 then waste < 16 else 5 * waste <= c)

let test_alloc_invalid () =
  let h, _ = make () in
  Alcotest.(check bool) "zero size rejected" true
    (try
       ignore (Heap.alloc h 0);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "oversized rejected" true
    (try
       ignore (Heap.alloc h (Heap.max_object_size + 1));
       false
     with Invalid_argument _ -> true)

let test_out_of_memory () =
  let h, _ = make ~size:8192 () in
  Alcotest.(check bool) "exhaustion raises Out_of_memory" true
    (try
       for _ = 1 to 10000 do
         ignore (Heap.alloc h 1024)
       done;
       false
     with Out_of_memory -> true)

let test_free_and_reuse () =
  let h, _ = make () in
  let p1 = Heap.alloc h 256 in
  let p2 = Heap.alloc h 256 in
  Heap.free h p1;
  Alcotest.(check bool) "freed not allocated" false (Heap.is_allocated h p1);
  Alcotest.(check bool) "other untouched" true (Heap.is_allocated h p2);
  let p3 = Heap.alloc h 256 in
  Alcotest.(check int) "LIFO reuse of freed slot" p1 p3

let test_free_invalid () =
  let h, _ = make () in
  let p = Heap.alloc h 64 in
  Heap.free h p;
  Alcotest.(check bool) "double free rejected" true
    (try
       Heap.free h p;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bogus pointer rejected" true
    (try
       Heap.free h 12345678;
       false
     with Invalid_argument _ -> true)

let test_alloc_ranges_predicts () =
  let h, _ = make () in
  (* bump-allocation case *)
  let p, ranges =
    match Heap.alloc_many_ranges h [ 100 ] with [ p ], r -> (p, r) | _ -> assert false
  in
  Alcotest.(check int) "prediction matches" p (Heap.alloc h 100);
  Alcotest.(check int) "two ranges (bump + extent)" 2 (List.length ranges);
  (* free-list case *)
  Heap.free h p;
  let q, ranges' =
    match Heap.alloc_many_ranges h [ 100 ] with [ q ], r -> (q, r) | _ -> assert false
  in
  Alcotest.(check int) "reuse predicted" p q;
  Alcotest.(check int) "two ranges (head + extent)" 2 (List.length ranges');
  Alcotest.(check int) "prediction matches on reuse" q (Heap.alloc h 100);
  (* A mixed sequence: two pops from one class's free list, then bump
     allocations of that class and another. *)
  let a = Heap.alloc h 100 and b = Heap.alloc h 100 in
  Heap.free h a;
  Heap.free h b;
  let sizes = [ 100; 30; 100; 100; 30 ] in
  let ptrs, ranges = Heap.alloc_many_ranges h sizes in
  Alcotest.(check int) "one word and one extent per allocation" 10 (List.length ranges);
  Alcotest.(check (list int)) "sequence predicted" ptrs (List.map (Heap.alloc h) sizes)

(* Prediction writes nothing, and it fails as a whole when the sequence
   does not fit even though each allocation alone would. *)
let test_alloc_many_ranges_pure () =
  let h, r = make ~size:8192 () in
  let p = Heap.alloc h 64 in
  Heap.free h p;
  let image () = Region.read_bytes r 0 (Region.size r) in
  let before = image () in
  ignore (Heap.alloc_many_ranges h [ 64; 64; 1024; 32 ]);
  Alcotest.(check bool) "prediction leaves the image unchanged" true
    (Bytes.equal before (image ()));
  Alcotest.(check bool) "too many for the heap raises Out_of_memory" true
    (try
       ignore (Heap.alloc_many_ranges h (List.init 16 (fun _ -> 1024)));
       false
     with Out_of_memory -> true);
  Alcotest.(check bool) "a failed prediction leaves the image unchanged" true
    (Bytes.equal before (image ()));
  match Heap.alloc_many_ranges h [ 1024 ] with
  | [ q ], _ -> Alcotest.(check int) "one alone still fits" q (Heap.alloc h 1024)
  | _ -> Alcotest.fail "one pointer per size"

let test_extent_covers_header_and_payload () =
  let h, _ = make () in
  let p = Heap.alloc h 500 in
  let { Heap.off; len } = Heap.extent h p in
  Alcotest.(check int) "extent starts at header" (p - 16) off;
  Alcotest.(check int) "extent length" (16 + 512) len

let test_root () =
  let h, r = make () in
  Alcotest.(check int) "null root initially" Heap.null (Heap.root h);
  let p = Heap.alloc h 64 in
  Heap.set_root h p;
  Alcotest.(check int) "root set" p (Heap.root h);
  (* the root pointer is persisted by set_root *)
  Region.crash r;
  let h' = Heap.open_existing r in
  Alcotest.(check int) "root survives crash" p (Heap.root h')

let test_reopen_preserves_objects () =
  let h, r = make () in
  let p = Heap.alloc h 64 in
  Region.write_string r p "persistent";
  Heap.set_root h p;
  Region.persist_all r;
  Region.crash r;
  let h' = Heap.open_existing r in
  Alcotest.(check bool) "still allocated" true (Heap.is_allocated h' p);
  Alcotest.(check string) "data survived" "persistent" (Region.read_string r p 10)

let expect_corrupt what f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" what
  | exception Region.Corrupt { structure = "Heap"; _ } -> ()

let test_open_bad_magic () =
  let clock = Clock.create () in
  let r =
    Region.create ~crash_mode:Region.Drop_unflushed ~rng:(Rng.create 1) ~clock
      ~size:(1 lsl 20) ()
  in
  expect_corrupt "unformatted region" (fun () -> Heap.open_existing r);
  let _, r = make () in
  Region.write_int64 r 0 (Int64.logxor (Region.read_int64 r 0) 0x100L);
  Region.persist r 0 8;
  expect_corrupt "flipped magic" (fun () -> Heap.open_existing r)

(* A version-1 image (power-of-two classes, 256-byte metadata block) and a
   size word that disagrees with the region are both refused, typed. *)
let test_open_bad_header () =
  let _, r = make () in
  Region.write_int64 r 8 1L;
  Region.persist r 8 8;
  expect_corrupt "version-1 image" (fun () -> Heap.open_existing r);
  let _, r = make () in
  Region.write_int r 16 (Region.size r / 2);
  Region.persist r 16 8;
  expect_corrupt "wrong size word" (fun () -> Heap.open_existing r)

(* The typed error reaches the caller of engine recovery unchanged. *)
(* Each case pokes one metadata word of a crashed engine's heap; recovery
   raises [Corrupt] naming that word before it writes anything. The bump
   word is at 32 and class [c]'s free-list head at [64 + 8c]. *)
let test_recover_corrupt () =
  let size = 1 lsl 20 in
  let last = 64 + (8 * (Array.length Heap.size_classes - 1)) in
  List.iter
    (fun (what, off, v) ->
      let config = { Engine.default_config with Engine.heap_bytes = size } in
      let e = Engine.create ~config ~kind:Engine.Kamino_simple ~seed:1 () in
      let r = Engine.main_region e in
      Engine.crash e;
      Region.write_int r off v;
      Region.persist r off 8;
      match Engine.recover e with
      | () -> Alcotest.failf "%s: accepted" what
      | exception Region.Corrupt { structure = "Heap"; off = o; _ } ->
          Alcotest.(check int) (what ^ ": names the word") off o)
    [
      ("engine recovery of a version-1 heap", 8, 1);
      ("bump inside the metadata block", 32, 16);
      ("negative bump", 32, -1);
      ("bump past the region", 32, max_int);
      ("class head inside the metadata block", 64, 8);
      ("class head below the first object", 64, 512);
      ("misaligned class head", 72, 528 + 8);
      ("negative class head", 80, -16);
      ("class head past the region", last, 1 lsl 40);
      ("largest-class head whose object overruns the region", last, size - 16);
    ]

let test_live_bytes () =
  let h, _ = make () in
  let _ = Heap.alloc h 1024 in
  let p = Heap.alloc h 32 in
  Alcotest.(check int) "live bytes" (1024 + 32) (Heap.live_bytes h);
  Heap.free h p;
  Alcotest.(check int) "after free" 1024 (Heap.live_bytes h)

(* --- Occupancy stats and chained extents --- *)

let test_stats_accounting () =
  let h, r = make () in
  let s0 = Heap.stats h in
  Alcotest.(check int) "fresh heap has no live objects" 0 s0.Heap.live_objects;
  let a = Heap.alloc h 100 in
  let b = Heap.alloc h 1000 in
  let s1 = Heap.stats h in
  Alcotest.(check int) "two live" 2 s1.Heap.live_objects;
  Alcotest.(check int) "live bytes tracks capacities"
    (Heap.capacity h a + Heap.capacity h b)
    s1.Heap.live_bytes;
  Alcotest.(check bool) "at least one live segment" true (s1.Heap.segments_live >= 1);
  Heap.free h a;
  let s2 = Heap.stats h in
  Alcotest.(check int) "one live after free" 1 s2.Heap.live_objects;
  (* [Heap.stats] survive a stale -> resync cycle (what reopen does). *)
  let h' = Heap.open_existing r in
  let s3 = Heap.stats h' in
  Alcotest.(check int) "resynced live objects" 1 s3.Heap.live_objects;
  Alcotest.(check int) "resynced live bytes" s2.Heap.live_bytes s3.Heap.live_bytes

let test_chained_alloc () =
  let h, r = make ~size:(1 lsl 22) () in
  let size = Heap.max_object_size + 100_000 in
  let plan, _ranges = Heap.alloc_many_ranges h (Heap.chain_plan size) in
  Alcotest.(check bool) "multi-extent plan" true (List.length plan >= 2);
  let head = Heap.alloc_chain h size in
  Alcotest.(check bool) "head allocated" true (Heap.is_allocated h head);
  Alcotest.(check int) "links match plan" (List.length plan)
    (List.length (Heap.chain_links h head));
  Alcotest.(check int) "total size recorded" size (Heap.chain_size h head);
  let s = Heap.stats h in
  Alcotest.(check int) "chained head counted once" 1 s.Heap.chained_objects;
  Alcotest.(check bool) "validate accepts chains" true (Heap.validate h = Ok ());
  (* Chain links are not individually freeable. *)
  Alcotest.(check bool) "free of head refused" true
    (try
       Heap.free h head;
       false
     with Invalid_argument _ -> true);
  (* Chains survive reopen. *)
  let h' = Heap.open_existing r in
  Alcotest.(check int) "chain intact after reopen" size (Heap.chain_size h' head);
  Heap.free_chain h' head;
  let s' = Heap.stats h' in
  Alcotest.(check int) "all extents released" 0 s'.Heap.live_objects;
  Alcotest.(check int) "no chained objects left" 0 s'.Heap.chained_objects

let test_validate_ok () =
  let h, _ = make () in
  let ps = List.init 20 (fun i -> Heap.alloc h ((i mod 5) + 1 * 100)) in
  List.iteri (fun i p -> if i mod 3 = 0 then Heap.free h p) ps;
  match Heap.validate h with
  | Ok () -> ()
  | Error e -> Alcotest.failf "expected valid heap, got %s" e

let test_validate_detects_corruption () =
  let h, r = make () in
  let p = Heap.alloc h 64 in
  (* corrupt the capacity word of the object header *)
  Region.write_int r (p - 16) 12345;
  match Heap.validate h with
  | Ok () -> Alcotest.fail "corruption not detected"
  | Error _ -> ()

let test_iter_objects () =
  let h, _ = make () in
  let p1 = Heap.alloc h 64 in
  let p2 = Heap.alloc h 128 in
  Heap.free h p1;
  let seen = ref [] in
  Heap.iter_objects h (fun p ~capacity ~allocated -> seen := (p, capacity, allocated) :: !seen);
  Alcotest.(check (list (triple int int bool)))
    "address-ordered walk"
    [ (p1, 64, false); (p2, 128, true) ]
    (List.rev !seen)

(* Model-based property test: the heap agrees with a simple reference
   allocator on which pointers are live, and validation always passes. *)
let alloc_free_qcheck =
  QCheck.Test.make ~name:"heap matches model allocator under random ops" ~count:60
    QCheck.(small_list (pair bool small_int))
    (fun ops ->
      let h, _ = make () in
      let live = Hashtbl.create 16 in
      let live_list = ref [] in
      List.iter
        (fun (is_alloc, n) ->
          if is_alloc || !live_list = [] then begin
            let size = (n mod 2000) + 1 in
            let p = Heap.alloc h size in
            Hashtbl.replace live p ();
            live_list := p :: !live_list
          end
          else begin
            match !live_list with
            | p :: rest ->
                Heap.free h p;
                Hashtbl.remove live p;
                live_list := rest
            | [] -> ()
          end)
        ops;
      Heap.validate h = Ok ()
      && Heap.live_objects h = Hashtbl.length live
      && Hashtbl.fold (fun p () acc -> acc && Heap.is_allocated h p) live true)

(* Random allocs and frees across every class: a freed extent is the next
   one its class hands out (LIFO), no class hands out another class's
   extent, a fresh extent is never one seen before, and the heap validates
   at the end. *)
let class_reuse_qcheck =
  QCheck.Test.make ~name:"freed extents are reused within their class" ~count:100
    QCheck.(small_list (pair bool (int_range 1 (64 * 1024))))
    (fun ops ->
      let h, _ = make ~size:(1 lsl 23) () in
      let freed = Array.make (Array.length Heap.size_classes) [] in
      let seen = Hashtbl.create 64 in
      let live = ref [] in
      let ok = ref true in
      List.iter
        (fun (is_alloc, size) ->
          match !live with
          | p :: rest when not is_alloc ->
              let cls = Heap.class_of_size (Heap.capacity h p) in
              Heap.free h p;
              freed.(cls) <- p :: freed.(cls);
              live := rest
          | _ ->
              let cls = Heap.class_of_size size in
              let p = Heap.alloc h size in
              (match freed.(cls) with
              | q :: rest ->
                  if p <> q then ok := false;
                  freed.(cls) <- rest
              | [] -> if Hashtbl.mem seen p then ok := false);
              if Heap.capacity h p <> Heap.size_classes.(cls) then ok := false;
              Hashtbl.replace seen p ();
              live := p :: !live)
        ops;
      !ok && Heap.validate h = Ok ())

(* --- Every fence of an alloc, a free and a free_chain ---

   Three transactions, each crashed at every one of its fences (and at
   every fence of the recoveries after it) in all three crash modes: the
   first allocates objects in three classes plus a chained extent above
   [max_object_size], the second frees the three objects, the third frees
   the chain. After every recovery the heap validates and its live object
   set is the before- or the after-state (the after-state once the commit
   has returned). *)

let sweep_config crash_mode =
  { Engine.default_config with Engine.heap_bytes = 1 lsl 20; log_slots = 16; crash_mode }

let sweep_sizes = [ 72; 264; 1032 ]

let chain_bytes = Heap.max_object_size + 1000

let alloc_all tx = Engine.alloc_many tx (sweep_sizes @ [ chain_bytes ])

let live_set e =
  let objs = ref [] in
  Heap.iter_objects (Engine.heap e) (fun p ~capacity ~allocated ->
      if allocated then objs := Printf.sprintf "%d:%d" p capacity :: !objs);
  String.concat " " (List.rev !objs)

let sweep_heap_tx (name, kind) crash_mode (step, prefix, op) =
  let setup () =
    let e = Engine.create ~config:(sweep_config crash_mode) ~kind ~seed:24 () in
    let ps = if prefix then Engine.with_tx e alloc_all else [] in
    Engine.drain_backup e;
    (e, ps)
  in
  let ctx = Printf.sprintf "%s %s" name step in
  Fence_sweep.require_split ~ctx
    (Fence_sweep.sweep ~ctx ~setup
       ~crash:(fun (e, _) -> Engine.crash e)
       ~recover:(fun (e, _) -> Engine.recover e)
       ~op:(fun (e, ps) -> Engine.with_tx e (fun tx -> op tx ps))
       ~drain:(fun (e, _) -> Engine.drain_backup e)
       ~observe:(fun (e, _) -> live_set e)
       ~check:(fun (e, _) -> Tx_model.check_engine e)
       ())

(* [alloc_all]'s pointers: the class objects first, the chain head last. *)
let class_objects ps = List.filteri (fun i _ -> i < List.length sweep_sizes) ps

let chain_head ps = List.nth ps (List.length sweep_sizes)

let heap_txs =
  [
    ("alloc", false, fun tx _ -> ignore (alloc_all tx));
    ("free", true, fun tx ps -> List.iter (Engine.free tx) (class_objects ps));
    ("free_chain", true, fun tx ps -> Engine.free_chain tx (chain_head ps));
  ]

let test_every_fence kind () =
  List.iter
    (fun mode -> List.iter (sweep_heap_tx kind mode) heap_txs)
    [ Region.Words_survive_randomly; Region.Lines_survive_randomly; Region.Drop_unflushed ]

let () =
  Alcotest.run "heap"
    [
      ( "alloc",
        [
          Alcotest.test_case "basic" `Quick test_alloc_basic;
          Alcotest.test_case "zeroed payloads" `Quick test_alloc_zeroed;
          Alcotest.test_case "size classes" `Quick test_alloc_size_classes;
          Alcotest.test_case "class lookup matches the table" `Quick test_class_lookup;
          Alcotest.test_case "invalid sizes" `Quick test_alloc_invalid;
          Alcotest.test_case "out of memory" `Quick test_out_of_memory;
          Alcotest.test_case "alloc_ranges predicts" `Quick test_alloc_ranges_predicts;
          Alcotest.test_case "alloc_many_ranges is pure" `Quick test_alloc_many_ranges_pure;
          Alcotest.test_case "extent" `Quick test_extent_covers_header_and_payload;
        ] );
      ( "free",
        [
          Alcotest.test_case "free and reuse" `Quick test_free_and_reuse;
          Alcotest.test_case "invalid frees" `Quick test_free_invalid;
          Alcotest.test_case "live bytes" `Quick test_live_bytes;
        ] );
      ( "durability",
        [
          Alcotest.test_case "root" `Quick test_root;
          Alcotest.test_case "reopen preserves objects" `Quick test_reopen_preserves_objects;
          Alcotest.test_case "bad magic rejected" `Quick test_open_bad_magic;
          Alcotest.test_case "bad version and size rejected" `Quick test_open_bad_header;
          Alcotest.test_case "recovery raises Corrupt" `Quick test_recover_corrupt;
        ] );
      ( "validation",
        [
          Alcotest.test_case "occupancy stats" `Quick test_stats_accounting;
          Alcotest.test_case "chained extents" `Quick test_chained_alloc;
          Alcotest.test_case "valid heap" `Quick test_validate_ok;
          Alcotest.test_case "detects corruption" `Quick test_validate_detects_corruption;
          Alcotest.test_case "iter objects" `Quick test_iter_objects;
        ] );
      ( "fence sweep",
        List.map
          (fun ((name, _) as kind) ->
            Alcotest.test_case (name ^ " alloc, free, free_chain") `Quick (test_every_fence kind))
          [
            ("undo", Engine.Undo_logging);
            ("cow", Engine.Cow);
            ("kamino-simple", Engine.Kamino_simple);
            ( "kamino-dynamic",
              Engine.Kamino_dynamic { alpha = 0.3; policy = Kamino_core.Backup.Lru_policy } );
          ] );
      ( "qcheck",
        [
          QCheck_alcotest.to_alcotest class_table_qcheck;
          QCheck_alcotest.to_alcotest alloc_free_qcheck;
          QCheck_alcotest.to_alcotest class_reuse_qcheck;
        ] );
    ]
