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

(* One object through the heap's allocation path: reserve, then publish. *)
let alloc h size =
  let r = Heap.reserve h [ size ] in
  Heap.publish h r;
  List.hd r.Heap.ptrs

(* A free as an engine makes it in a transaction that then commits: the
   header's flags word, then the extent joins its class's free extents. *)
let free h p =
  Heap.free h (Heap.extent h p);
  Heap.settle h ~rolled_back:false

let test_alloc_basic () =
  let h, _ = make () in
  let p = alloc h 100 in
  Alcotest.(check bool) "non-null" true (p <> Heap.null);
  Alcotest.(check bool) "allocated" true (Heap.is_allocated h p);
  Alcotest.(check int) "rounded to class" 112 (Heap.capacity h p);
  Alcotest.(check int) "one live object" 1 (Heap.stats h).Heap.live_objects

let test_alloc_zeroed () =
  let h, r = make () in
  let p = alloc h 64 in
  Region.write_string r p "garbage!";
  free h p;
  let q = alloc h 64 in
  Alcotest.(check int) "reused slot" p q;
  Alcotest.(check string) "payload zeroed on reuse"
    (String.make 8 '\000')
    (Region.read_string r q 8)

let test_alloc_size_classes () =
  let h, _ = make () in
  List.iter
    (fun (req, expect) ->
      let p = alloc h req in
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
       ignore (alloc h 0);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "oversized rejected" true
    (try
       ignore (alloc h (Heap.max_object_size + 1));
       false
     with Invalid_argument _ -> true)

let test_out_of_memory () =
  let h, _ = make ~size:8192 () in
  Alcotest.(check bool) "exhaustion raises Out_of_memory" true
    (try
       for _ = 1 to 10000 do
         ignore (alloc h 1024)
       done;
       false
     with Out_of_memory -> true)

let test_free_and_reuse () =
  let h, _ = make () in
  let p1 = alloc h 256 in
  let p2 = alloc h 256 in
  free h p1;
  Alcotest.(check bool) "freed not allocated" false (Heap.is_allocated h p1);
  Alcotest.(check bool) "other untouched" true (Heap.is_allocated h p2);
  let p3 = alloc h 256 in
  Alcotest.(check int) "reuse of the freed slot" p1 p3

let test_free_invalid () =
  let h, _ = make () in
  let p = alloc h 64 in
  free h p;
  Alcotest.(check bool) "double free rejected" true
    (try
       Heap.free h (Heap.extent h p);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bogus pointer rejected" true
    (try
       Heap.free h { Heap.off = 12345662; len = 48 };
       false
     with Invalid_argument _ -> true)

(* A reservation claims its objects: a class hands out its highest free
   extent first, then fresh space at the cursor, and the ranges are the
   extents alone. Giving it back restores the claim exactly. *)
let test_reserve_claims () =
  let h, _ = make () in
  let a = alloc h 100 and b = alloc h 100 in
  free h a;
  free h b;
  let r = Heap.reserve h [ 100; 30; 100; 100 ] in
  (match r.Heap.ptrs with
  | [ p1; p2; p3; p4 ] ->
      Alcotest.(check int) "the highest free extent first" b p1;
      Alcotest.(check int) "then the next" a p3;
      Alcotest.(check bool) "fresh space past both" true (p2 > b && p4 > p2)
  | _ -> Alcotest.fail "one pointer per size");
  Alcotest.(check (list int)) "one extent per object"
    (List.map (fun p -> p - 16) r.Heap.ptrs)
    (List.map (fun { Heap.off; _ } -> off) r.Heap.ranges);
  Alcotest.(check bool) "it moved the cursor" true (r.Heap.top > r.Heap.base);
  Alcotest.(check bool) "another claim gets other objects" true
    (List.for_all (fun p -> not (List.mem p r.Heap.ptrs)) (Heap.reserve h [ 100; 30 ]).Heap.ptrs);
  let h, _ = make () in
  let a = alloc h 100 and b = alloc h 100 in
  free h a;
  free h b;
  let r = Heap.reserve h [ 100; 30; 100; 100 ] in
  Heap.give_back h r;
  Alcotest.(check (list int)) "given back, the same claim again" r.Heap.ptrs
    (Heap.reserve h [ 100; 30; 100; 100 ]).Heap.ptrs

(* A reservation writes nothing, and it fails as a whole when the
   sequence does not fit even though each allocation alone would. *)
let test_reserve_pure () =
  let h, r = make ~size:8192 () in
  let p = alloc h 64 in
  free h p;
  let image () = Region.read_bytes r 0 (Region.size r) in
  let before = image () in
  let sizes = [ 64; 64; 1024; 32 ] in
  let first = Heap.reserve h sizes in
  Alcotest.(check bool) "a claim leaves the image unchanged" true (Bytes.equal before (image ()));
  Heap.give_back h first;
  Alcotest.(check bool) "too many for the heap raises Out_of_memory" true
    (try
       ignore (Heap.reserve h (List.init 16 (fun _ -> 1024)));
       false
     with Out_of_memory -> true);
  Alcotest.(check bool) "a failed claim leaves the image unchanged" true
    (Bytes.equal before (image ()));
  Alcotest.(check (list int)) "and gives back what it took" first.Heap.ptrs
    (Heap.reserve h sizes).Heap.ptrs

let test_extent_covers_header_and_payload () =
  let h, _ = make () in
  let p = alloc h 500 in
  let { Heap.off; len } = Heap.extent h p in
  Alcotest.(check int) "extent starts at header" (p - 16) off;
  Alcotest.(check int) "extent length" (16 + 512) len

let test_root () =
  let h, r = make () in
  Alcotest.(check int) "null root initially" Heap.null (Heap.root h);
  let p = alloc h 64 in
  Heap.set_root h p;
  Alcotest.(check int) "root set" p (Heap.root h);
  (* the root pointer is persisted by set_root *)
  Region.crash r;
  let h' = Heap.open_existing r in
  Alcotest.(check int) "root survives crash" p (Heap.root h')

let test_reopen_preserves_objects () =
  let h, r = make () in
  let p = alloc h 64 in
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

(* The typed error reaches the caller of engine recovery unchanged.
   Each case pokes one word of a crashed engine's heap, the version word
   or a header word of the middle one of three objects, and recovery
   raises [Corrupt] naming that word. *)
let test_recover_corrupt () =
  let size = 1 lsl 20 in
  List.iter
    (fun (what, at, v) ->
      let config = { Engine.default_config with Engine.heap_bytes = size } in
      let e = Engine.create ~config ~kind:Engine.Kamino_simple ~seed:1 () in
      let ps = Engine.with_tx e (fun tx -> Engine.alloc_many tx [ 64; 100; 1000 ]) in
      Engine.drain_backup e;
      let off = at (List.nth ps 1 - 16) in
      let r = Engine.main_region e in
      Engine.crash e;
      Region.write_int r off v;
      Region.persist r off 8;
      match Engine.recover e with
      | () -> Alcotest.failf "%s: accepted" what
      | exception Region.Corrupt { structure = "Heap"; off = o; _ } ->
          Alcotest.(check int) (what ^ ": names the word") off o)
    [
      ("engine recovery of a version-2 heap", Fun.const 8, 2);
      ("a capacity that is no class", Fun.id, 17);
      ("a negative capacity", Fun.id, -16);
      ("a capacity past the largest class", Fun.id, max_int);
      ("flags 2", (fun hdr -> hdr + 8), 2);
      ("flags -1", (fun hdr -> hdr + 8), -1);
    ]

(* Reopening rebuilds the volatile state from the headers alone: after
   allocations and frees in three classes, the next allocations of each
   class land on its freed extents, highest first, and then past the
   last extent. *)
let test_open_rebuilds () =
  let h, r = make () in
  let sizes = [ 32; 100; 1000; 32; 100; 1000; 32; 100; 1000; 64 ] in
  let ps = List.map (alloc h) sizes in
  let freed = List.filteri (fun i _ -> i < 9 && i mod 4 <> 1) ps in
  List.iter (free h) (List.rev freed);
  let last = List.fold_left max 0 ps in
  let past = last + Heap.capacity h last in
  Region.persist_all r;
  Region.crash r;
  let h = Heap.open_existing r in
  Alcotest.(check bool) "the rebuilt state validates" true (Heap.validate h = Ok ());
  List.iter
    (fun size ->
      let cls = Heap.class_of_size size in
      let want =
        List.sort (fun a b -> compare b a)
          (List.filter (fun p -> Heap.class_of_size (Heap.capacity h p) = cls) freed)
      in
      let got = List.map (fun _ -> alloc h size) want in
      Alcotest.(check (list int)) (Printf.sprintf "class %d: its freed extents" size) want got;
      Alcotest.(check bool) (Printf.sprintf "class %d: then past the last extent" size) true
        (alloc h size > past))
    [ 32; 100; 1000 ];
  Alcotest.(check bool) "valid after" true (Heap.validate h = Ok ())

(* Every payload pointer is 16-aligned: a pointer 8 bytes into an object
   whose payload word at that pointer reads 1 is no object. *)
let test_is_allocated_aligned () =
  let h, r = make () in
  let p = alloc h 64 in
  Region.write_int r (p + 16) 1;
  Alcotest.(check bool) "the object" true (Heap.is_allocated h p);
  Alcotest.(check bool) "8 bytes in" false (Heap.is_allocated h (p + 24));
  Alcotest.(check bool) "4 bytes in" false (Heap.is_allocated h (p + 20))

let test_live_bytes () =
  let h, _ = make () in
  let _ = alloc h 1024 in
  let p = alloc h 32 in
  Alcotest.(check int) "live bytes" (1024 + 32) (Heap.stats h).Heap.live_bytes;
  free h p;
  Alcotest.(check int) "after free" 1024 (Heap.stats h).Heap.live_bytes

(* --- Occupancy stats --- *)

let test_stats_accounting () =
  let h, r = make () in
  let s0 = Heap.stats h in
  Alcotest.(check int) "fresh heap has no live objects" 0 s0.Heap.live_objects;
  let a = alloc h 100 in
  let b = alloc h 1000 in
  let s1 = Heap.stats h in
  Alcotest.(check int) "two live" 2 s1.Heap.live_objects;
  Alcotest.(check int) "live bytes tracks capacities"
    (Heap.capacity h a + Heap.capacity h b)
    s1.Heap.live_bytes;
  Alcotest.(check bool) "at least one live segment" true (s1.Heap.segments_live >= 1);
  free h a;
  let s2 = Heap.stats h in
  Alcotest.(check int) "one live after free" 1 s2.Heap.live_objects;
  (* [Heap.stats] read the same after reopen. *)
  let h' = Heap.open_existing r in
  let s3 = Heap.stats h' in
  Alcotest.(check int) "live objects after reopen" 1 s3.Heap.live_objects;
  Alcotest.(check int) "live bytes after reopen" s2.Heap.live_bytes s3.Heap.live_bytes

let test_validate_ok () =
  let h, _ = make () in
  let ps = List.init 20 (fun i -> alloc h ((i mod 5) + 1 * 100)) in
  List.iteri (fun i p -> if i mod 3 = 0 then free h p) ps;
  match Heap.validate h with
  | Ok () -> ()
  | Error e -> Alcotest.failf "expected valid heap, got %s" e

let test_validate_detects_corruption () =
  let h, r = make () in
  let p = alloc h 64 in
  (* corrupt the capacity word of the object header *)
  Region.write_int r (p - 16) 12345;
  match Heap.validate h with
  | Ok () -> Alcotest.fail "corruption not detected"
  | Error _ -> ()

(* Only 0 (free) and 1 (allocated) are flags words: a header whose flags
   read 3 fails validation, and freeing its object is refused. *)
let test_validate_rejects_flags () =
  let h, r = make () in
  let p = alloc h 64 in
  Region.write_int64 r (p - 8) 3L;
  (match Heap.validate h with
  | Ok () -> Alcotest.fail "flags 3 accepted"
  | Error _ -> ());
  Alcotest.check_raises "free refused"
    (Invalid_argument (Printf.sprintf "Heap.free: %d is not an allocated object" p))
    (fun () -> Heap.free h { Heap.off = p - 16; len = 80 })

let test_iter_objects () =
  let h, _ = make () in
  let p1 = alloc h 64 in
  let p2 = alloc h 128 in
  free h p1;
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
            let p = alloc h size in
            Hashtbl.replace live p ();
            live_list := p :: !live_list
          end
          else begin
            match !live_list with
            | p :: rest ->
                free h p;
                Hashtbl.remove live p;
                live_list := rest
            | [] -> ()
          end)
        ops;
      Heap.validate h = Ok ()
      && (Heap.stats h).Heap.live_objects = Hashtbl.length live
      && Hashtbl.fold (fun p () acc -> acc && Heap.is_allocated h p) live true)

(* Random allocs and frees across every class: a class hands out its
   highest freed extent first, no class hands out another class's
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
              free h p;
              freed.(cls) <- List.sort (fun a b -> compare b a) (p :: freed.(cls));
              live := rest
          | _ ->
              let cls = Heap.class_of_size size in
              let p = alloc h size in
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

(* --- Every fence of an alloc and a free ---

   Two transactions, each crashed at every one of its fences (and at every
   fence of the recoveries after it) in all three crash modes: the first
   allocates objects in three classes, the second frees them. After every
   recovery the heap validates and its live object set is the before- or
   the after-state (the after-state once the commit has returned). *)

let sweep_config crash_mode =
  { Engine.default_config with Engine.heap_bytes = 1 lsl 20; log_slots = 16; crash_mode }

let sweep_sizes = [ 72; 264; 1032 ]

let alloc_all tx = Engine.alloc_many tx sweep_sizes

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
  Fence_sweep.require_split ~ctx ~last_fence_commits:(kind = Engine.Undo_logging)
    (Fence_sweep.sweep ~ctx ~setup
       ~crash:(fun (e, _) -> Engine.crash e)
       ~recover:(fun (e, _) -> Engine.recover e)
       ~op:(fun (e, ps) -> Engine.with_tx e (fun tx -> op tx ps))
       ~drain:(fun (e, _) -> Engine.drain_backup e)
       ~observe:(fun (e, _) -> live_set e)
       ~check:(fun (e, _) -> Tx_model.check_engine e)
       ())

let heap_txs =
  [
    ("alloc", false, fun tx _ -> ignore (alloc_all tx));
    ("free", true, fun tx ps -> List.iter (Engine.free tx) ps);
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
          Alcotest.test_case "a reservation claims" `Quick test_reserve_claims;
          Alcotest.test_case "a reservation is pure" `Quick test_reserve_pure;
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
          Alcotest.test_case "open rebuilds the allocator" `Quick test_open_rebuilds;
        ] );
      ( "validation",
        [
          Alcotest.test_case "occupancy stats" `Quick test_stats_accounting;
          Alcotest.test_case "valid heap" `Quick test_validate_ok;
          Alcotest.test_case "detects corruption" `Quick test_validate_detects_corruption;
          Alcotest.test_case "flags other than 0/1 rejected" `Quick test_validate_rejects_flags;
          Alcotest.test_case "iter objects" `Quick test_iter_objects;
          Alcotest.test_case "is_allocated wants an aligned pointer" `Quick
            test_is_allocated_aligned;
        ] );
      ( "fence sweep",
        List.map
          (fun ((name, _) as kind) ->
            Alcotest.test_case (name ^ " alloc, free") `Quick (test_every_fence kind))
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
