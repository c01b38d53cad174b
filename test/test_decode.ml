(* Header-word flips: decoding persistent state never raises an untyped
   exception. For every 8-byte header word of each persistent structure,
   each hostile value below is written into a sound image, which is then
   opened (or recovered) and used. The outcome must be a working
   structure or [Region.Corrupt]; any other exception fails the test.
   Payload words are out of this fault model: they pass every structural
   check, and only an engine-level oracle can judge them. The heap keeps
   no links between objects: its free lists are volatile, rebuilt from
   the extent headers, which are flipped here. *)

module Rng = Kamino_sim.Rng
module Clock = Kamino_sim.Clock
module Region = Kamino_nvm.Region
module Cost_model = Kamino_nvm.Cost_model
module Commit_marker = Kamino_nvm.Commit_marker
module Heap = Kamino_heap.Heap
module Engine = Kamino_core.Engine
module Ilog = Kamino_core.Intent_log
module Dlog = Kamino_core.Data_log
module Phash = Kamino_core.Phash
module Opqueue = Kamino_chain.Opqueue
module Fs = Kamino_fs.Fs
module Fs_check = Kamino_fs.Fs_check

(* The values written over a word that held [v]. *)
let values v = [ 0; -1; 1; v - 8; v + 8; v + 4096; 16; 1 lsl 40; max_int; min_int ]

let words ~from n = List.init n (fun i -> from + (8 * i))

let region size = Region.create ~rng:(Rng.create 1) ~clock:(Clock.create ()) ~size ()

(* One object through the heap's allocation path: reserve, then publish. *)
let alloc h size =
  let r = Heap.reserve h [ size ] in
  Heap.publish h r;
  List.hd r.Heap.ptrs

(* [sweep name words build] builds a fresh image per case: [build ()]
   returns the region holding the words and the function that opens and
   uses it. [extra] adds values to every word's. Returns how many cases
   raised [Corrupt]. *)
let sweep ?(extra = []) name words build =
  let pristine, _ = build () in
  let typed = ref 0 in
  List.iter
    (fun off ->
      List.iter
        (fun x ->
          let r, use = build () in
          Region.write_int r off x;
          match use () with
          | () -> ()
          | exception Region.Corrupt _ -> incr typed
          | exception e ->
              Alcotest.failf "%s: word %d = %d raised %s" name off x (Printexc.to_string e))
        (values (Region.peek_int pristine off) @ extra))
    words;
  !typed

(* Each sweep must reject at least the flips of its magic word, or the
   [use] function never decoded anything. *)
let check_typed ?extra name words build =
  Alcotest.(check bool) (name ^ ": some flips are typed errors") true
    (sweep ?extra name words build > 0)

(* A heap with objects live and freed in several classes; [use] reopens
   it, which rebuilds the allocator from the headers, validates it and
   allocates once from every class. The words are the metadata block's
   (magic, version, size, root) and the two header words of a mid-heap
   extent, which the open walk reads; besides the generic values, a
   capacity of 0 (the walk ends there), one that is no class size, one
   past the region's end, and flags 2. The 4 MiB region holds one object
   of every class on top of the heap. *)
let test_heap () =
  let size = 4 lsl 20 in
  let mid = ref 0 in
  let build () =
    let r = region size in
    let h = Heap.format r in
    let ps = List.map (alloc h) [ 32; 32; 100; 1000; 5000; 32 ] in
    List.iteri (fun i p -> if i mod 2 = 0 then Heap.free h (Heap.extent h p)) ps;
    mid := List.nth ps 3 - 16;
    Region.persist_all r;
    ( r,
      fun () ->
        let h = Heap.open_existing r in
        ignore (Heap.validate h);
        Array.iter (fun c -> ignore (alloc h c)) Heap.size_classes )
  in
  ignore (build ());
  check_typed ~extra:[ 0; 2; 17; size ] "heap" (words ~from:0 4 @ words ~from:!mid 2) build

(* A class-size capacity whose extent runs past the region's end is
   refused, typed, naming the capacity word. *)
let test_heap_overrun () =
  let r = region 8192 in
  let h = Heap.format r in
  let p = alloc h 32 in
  Region.write_int r (p - 16) Heap.max_object_size;
  Region.persist_all r;
  match Heap.open_existing r with
  | _ -> Alcotest.fail "an extent past the region's end accepted"
  | exception Region.Corrupt { structure = "Heap"; off; _ } ->
      Alcotest.(check int) "names the capacity word" (p - 16) off

(* A log with a committed and a running record; [use] reopens it and
   walks every record. The words are the log header and the first slot's
   header. *)
let test_intent_log () =
  let threads = 2 and entries = 4 and slots = 4 in
  let slot0 = 64 + (threads * 64) in
  let build () =
    let r =
      region (Ilog.required_size ~max_user_threads:threads ~max_tx_entries:entries ~n_slots:slots)
    in
    let log = Ilog.format r ~max_user_threads:threads ~max_tx_entries:entries ~n_slots:slots in
    let record tx_id state =
      let s = Option.get (Ilog.begin_record log ~tx_id) in
      Ilog.add_intent log s { Ilog.off = 4096 * tx_id; len = 64 };
      Ilog.add_intent log s { Ilog.off = (4096 * tx_id) + 256; len = 8 };
      Ilog.barrier log s;
      Ilog.mark log s state
    in
    record 1 Ilog.Committed;
    record 2 Ilog.Running;
    Region.persist_all r;
    ( r,
      fun () ->
        let log = Ilog.open_existing r in
        Ilog.iter_records log (fun _ _ _ intents -> ignore (Ilog.total_bytes intents));
        ignore (Ilog.max_tx_id log, Ilog.free_slots log) )
  in
  check_typed "intent log" (words ~from:0 8 @ words ~from:slot0 8) build

(* An undo record mid-transaction with two snapshots; [use] recovers it
   the way the undo engine does: phase, entries, roll-back, finish. The
   words are the log header and the first entry's header. *)
let test_data_log () =
  let main = region 65536 in
  let build () =
    let r = region (Dlog.required_size ~arena_bytes:8192) in
    let log = Dlog.format r in
    Dlog.begin_tx log ~tx_id:7;
    ignore (Dlog.add log ~off:128 ~len:64 ~replay:Dlog.On_abort ~src:main);
    ignore (Dlog.add log ~off:1024 ~len:40 ~replay:Dlog.On_abort ~src:main);
    Dlog.barrier log;
    Region.persist_all r;
    ( r,
      fun () ->
        let log = Dlog.open_existing r in
        if Dlog.phase log <> Dlog.Idle then begin
          ignore (Dlog.tx_id log);
          List.iter (fun e -> Dlog.apply_entry log e ~dst:main) (Dlog.recover_entries log);
          Dlog.finish log
        end )
  in
  check_typed "data log" (words ~from:0 8 @ words ~from:64 4) build

(* A full table; [use] reopens it, then finds, removes, inserts into
   the bucket the remove freed, and iterates. *)
let test_phash () =
  let build () =
    let r = region (Phash.required_size ~capacity:16) in
    let t = Phash.format r ~capacity:16 in
    for k = 1 to 16 do
      ignore (Phash.insert t ~key:k ~value:(k * 10))
    done;
    Phash.fence t;
    Region.persist_all r;
    ( r,
      fun () ->
        let t = Phash.open_existing r in
        ignore (Phash.find t ~key:3);
        ignore (Phash.remove t ~key:5);
        ignore (Phash.insert t ~key:99 ~value:1);
        Phash.iter t (fun ~key:_ ~value:_ ~bucket:_ -> ()) )
  in
  check_typed "phash" (words ~from:0 8) build

(* A queue with two entries consumed and three published; [use] reopens
   it, reads and drains it, and enqueues again. The words are the queue
   header and the head slot's header. *)
let test_opqueue () =
  let slot_bytes = 64 and n_slots = 8 in
  let build () =
    let r = region (Opqueue.required_size ~slot_bytes ~n_slots) in
    let q = Opqueue.format r ~slot_bytes ~n_slots in
    List.iter (fun p -> ignore (Opqueue.enqueue q p)) [ "a"; "bb"; "ccc"; "dddd"; "eeeee" ];
    for _ = 1 to 2 do
      ignore (Opqueue.peek q);
      Opqueue.drop_peeked q
    done;
    ( r,
      fun () ->
        let q = Opqueue.open_existing r in
        Opqueue.iter q (fun s -> ignore (Opqueue.Slot.to_string s));
        while Opqueue.peek q <> None do
          Opqueue.drop_peeked q
        done;
        ignore (Opqueue.enqueue q "f") )
  in
  check_typed "opqueue" (words ~from:0 8 @ words ~from:(64 + (2 * (24 + slot_bytes))) 3) build;
  (* The head word alone: a head the entries disagree with is typed; one
     they agree with reopens (0 and 1: the consumed entries are still in
     their slots). *)
  List.iter
    (fun x ->
      let r, use = build () in
      Region.write_int r 16 x;
      let typed = match use () with () -> false | exception Region.Corrupt _ -> true in
      Alcotest.(check bool) (Printf.sprintf "opqueue head %d typed" x) (x <> 0 && x <> 1) typed)
    (values 2)

(* A written marker; [use] reads it. The words are the flag, the count
   and every entry word. *)
let test_commit_marker () =
  let build () =
    let m =
      Commit_marker.create ~cost:Cost_model.default ~crash_mode:Region.Drop_unflushed ~seed:1
        ~clock:(Clock.create ()) ~entry_words:2 ~max_entries:3
    in
    Commit_marker.write m 2 (fun k j -> (10 * k) + j + 1);
    (Commit_marker.region m, fun () -> ignore (Commit_marker.read m))
  in
  check_typed "commit marker" (words ~from:0 6) build

(* The fs superblock, flipped through a committed transaction; [use]
   crashes and recovers the engine, then attaches, checks and lists the
   root. [Fs_error] from an operation after [attach] is a refusal too. *)
let test_fs_superblock () =
  let config = { Engine.default_config with Engine.heap_bytes = 1 lsl 20 } in
  let image () =
    let e = Engine.create ~config ~kind:Engine.Kamino_simple ~seed:3 () in
    let fs = Fs.format ~block_size:64 ~dir_hash_bits:2 e in
    let root = Fs.root_ino fs in
    Fs.write fs ~ino:(Fs.create fs ~dir:root "f") ~off:0 "some bytes";
    ignore (Fs.mkdir fs ~dir:root "d");
    (e, Fs.superblock fs)
  in
  let pristine, sb = image () in
  let typed = ref 0 in
  for w = 0 to (Fs.Layout.sb_size / 8) - 1 do
    let off = 8 * w in
    List.iter
      (fun x ->
        let e, sb = image () in
        Engine.with_tx e (fun tx ->
            Engine.add tx sb;
            Engine.write_int tx sb off x);
        Engine.crash e;
        match
          Engine.recover e;
          let fs = Fs.attach e in
          match
            ignore (Fs_check.fsck fs);
            ignore (Fs.readdir fs ~dir:(Fs.root_ino fs))
          with
          | () -> ()
          | exception Fs.Fs_error _ -> ()
        with
        | () -> ()
        | exception Region.Corrupt _ -> incr typed
        | exception e ->
            Alcotest.failf "superblock word %d = %d raised %s" off x (Printexc.to_string e))
      (values (Engine.peek_int pristine sb off))
  done;
  Alcotest.(check bool) "fs superblock: some flips are typed errors" true (!typed > 0)

(* --- packed intent-log state words ---

   A slot's state word packs a 60-bit checksum above the state. Hostile
   words written over every occupied slot of a crashed engine image (a
   sealed commit not yet applied, and an in-flight transaction): a
   checksum on [Free], [Running] or [Aborted], a negative word, a
   [Committed] word with no checksum (the two-fence mark) and one with a
   wrong checksum. Recovery must raise [Corrupt] or leave an engine whose
   heap validates and whose backup matches main. *)

let state_words_kinds =
  [
    ("kamino-simple", Engine.Kamino_simple);
    ("kamino-dynamic", Engine.Kamino_dynamic { alpha = 0.5; policy = Kamino_core.Backup.Lru_policy });
  ]

let engine_config crash_mode =
  { Engine.default_config with Engine.heap_bytes = 1 lsl 18; log_slots = 8; crash_mode }

let test_state_words () =
  let sum = (1 lsl 60) - 1 in
  let hostile =
    [ (1 lsl 2) lor 1; (1 lsl 40) lor 1; (sum lsl 2) lor 1; (7 lsl 2) lor 0; (sum lsl 2) lor 3; -1;
      2; (12345 lsl 2) lor 2 ]
  in
  List.iter
    (fun (name, kind) ->
      let image () =
        let e = Engine.create ~config:(engine_config Region.Drop_unflushed) ~kind ~seed:7 () in
        let ps =
          Engine.with_tx e (fun tx ->
              List.map
                (fun size ->
                  let p = Engine.alloc tx size in
                  Engine.write_int64 tx p 0 1L;
                  p)
                [ 48; 200; 48 ])
        in
        Engine.drain_backup e;
        Engine.with_tx e (fun tx ->
            Engine.add tx (List.nth ps 0);
            Engine.write_int64 tx (List.nth ps 0) 0 2L;
            ignore (Engine.alloc tx 96));
        let tx = Engine.begin_tx e in
        Engine.add tx (List.nth ps 1);
        Engine.write_int64 tx (List.nth ps 1) 8 3L;
        Engine.crash e;
        e
      in
      (* Every occupied slot's state word, from the log header's layout. *)
      let state_words e =
        let r = Ilog.region (Option.get (Engine.intent_log e)) in
        let threads = Region.peek_int r 16 and entries = Region.peek_int r 24 in
        let slots = Region.peek_int r 32 in
        List.filter_map
          (fun s ->
            let off = 64 + (threads * 64) + (s * (64 + (entries * 24))) + 8 in
            if Region.peek_int r off <> 0 then Some off else None)
          (List.init slots Fun.id)
      in
      let offs = state_words (image ()) in
      Alcotest.(check int) (name ^ ": two occupied slots") 2 (List.length offs);
      let typed = ref 0 in
      List.iter
        (fun off ->
          List.iter
            (fun w ->
              let e = image () in
              let r = Ilog.region (Option.get (Engine.intent_log e)) in
              Region.write_int r off w;
              Region.persist_all r;
              let here = Printf.sprintf "%s: state word %d = %#x" name off w in
              match Engine.recover e with
              | () -> Tx_model.check_engine e here
              | exception Region.Corrupt _ -> incr typed
              | exception x -> Alcotest.failf "%s raised %s" here (Printexc.to_string x))
            hostile)
        offs;
      (* A checksum on a state other than Committed, and a negative word:
         six of the eight values, on both slots. *)
      Alcotest.(check int) (name ^ ": typed refusals") 12 !typed)
    state_words_kinds

(* --- torn sealed commits ---

   A one-word update crashed at its sealed fence, the one that makes its
   write set and its commit mark durable together, under
   [Words_survive_randomly] across pinned seeds. Whatever subset of the
   pending words survived, [Engine.durable_outcome] decides the state:
   the after-state when it says committed, the before-state otherwise.
   Both must occur, and so must a torn commit: a [Committed] word that
   reached the medium without the update. *)
let test_torn_commits () =
  List.iter
    (fun (name, kind) ->
      let setup seed =
        let e =
          Engine.create ~config:(engine_config Region.Words_survive_randomly) ~kind ~seed ()
        in
        let p =
          Engine.with_tx e (fun tx ->
              let p = Engine.alloc tx 24 in
              Engine.write_int64 tx p 0 1L;
              p)
        in
        Engine.drain_backup e;
        (e, p)
      in
      let op (e, p) =
        Engine.with_tx e (fun tx ->
            Engine.add tx p;
            Engine.write_int64 tx p 0 2L)
      in
      let observe (e, p) = Engine.peek_int64 e p 0 in
      let reference = setup 1 in
      let fences () = (Engine.main_counters (fst reference)).Region.fences in
      let f0 = fences () in
      op reference;
      let sealed_fence = fences () - f0 - 1 in
      let committed = ref 0 and rolled_back = ref 0 and torn = ref 0 in
      for seed = 1 to 64 do
        let ((e, _) as s) = setup seed in
        let here = Printf.sprintf "%s seed %d" name seed in
        match Fence_sweep.attempt ~crash:(fun () -> Engine.crash e) sealed_fence (fun () -> op s) with
        | Fence_sweep.Crashed_in_op ->
            let id = Engine.last_tx_id e in
            let marked = ref false in
            Ilog.iter_records (Option.get (Engine.intent_log e)) (fun _ txid state _ ->
                if txid = id && state = Ilog.Committed then marked := true);
            let outcome = Engine.durable_outcome e id in
            Engine.recover e;
            Tx_model.check_engine e here;
            let want, tally =
              match outcome with
              | Engine.Committed -> (2L, committed)
              | Engine.Aborted | Engine.Absent ->
                  if !marked then incr torn;
                  (1L, rolled_back)
            in
            incr tally;
            Alcotest.(check int64) here want (observe s)
        | _ -> Alcotest.failf "%s: the sealed fence is not the transaction's last" here
      done;
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d committed, %d rolled back (%d torn commits)" name !committed
           !rolled_back !torn)
        true
        (!committed > 0 && !rolled_back > 0 && !torn > 0))
    state_words_kinds

let () =
  Alcotest.run "decode"
    [
      ( "header-word flips",
        [
          Alcotest.test_case "heap" `Quick test_heap;
          Alcotest.test_case "heap extent past the region" `Quick test_heap_overrun;
          Alcotest.test_case "intent log" `Quick test_intent_log;
          Alcotest.test_case "data log" `Quick test_data_log;
          Alcotest.test_case "phash" `Quick test_phash;
          Alcotest.test_case "opqueue" `Quick test_opqueue;
          Alcotest.test_case "commit marker" `Quick test_commit_marker;
          Alcotest.test_case "fs superblock" `Quick test_fs_superblock;
        ] );
      ( "sealed commit marks",
        [
          Alcotest.test_case "hostile state words" `Quick test_state_words;
          Alcotest.test_case "torn commits at the sealed fence" `Quick test_torn_commits;
        ] );
    ]
