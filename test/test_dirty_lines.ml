(* Dirty-line backup propagation (DESIGN.md par19): the per-intent masks of
   written 64 B lines, the line-exact applier tasks a full backup builds
   from them, and the invariant that makes skipping clean lines safe —
   after every drain the full backup is byte-equal to the main heap over
   the whole region, not only over live extents. *)

module Region = Kamino_nvm.Region
module Heap = Kamino_heap.Heap
module Engine = Kamino_core.Engine
module Backup = Kamino_core.Backup
module Applier = Kamino_core.Applier
module Async = Kamino_chain.Async_chain
module Op = Kamino_chain.Op

let config =
  { Engine.default_config with Engine.heap_bytes = 1 lsl 20; log_slots = 32 }

let make ?(seed = 5) () = Engine.create ~config ~kind:Engine.Kamino_simple ~seed ()

let range =
  Alcotest.testable
    (fun fmt { Heap.off; len } -> Format.fprintf fmt "[%d, +%d)" off len)
    ( = )

let ranges = Alcotest.list range

(* The 64 B lines [first .. last] of [r], clipped to [r]. *)
let lines ({ Heap.off; len } : Heap.range) ~first ~last =
  let lo = max off (first * 64) and hi = min (off + len) ((last + 1) * 64) in
  { Heap.off = lo; len = hi - lo }

let committed_alloc e size = Engine.with_tx e (fun tx -> Engine.alloc tx size)

let extent e p = Heap.extent (Engine.heap e) p

let backup_region e =
  match Engine.backup e with
  | Some b -> Option.get (Backup.full_region b)
  | None -> Alcotest.fail "no backup"

(* The whole-region invariant: every byte of the backup equals main. *)
let backup_equals_main e =
  let main = Engine.main_region e in
  Region.equal_ranges (backup_region e) 0 main 0 (Region.size main)

(* --- the mask ---------------------------------------------------------------- *)

let test_unwritten () =
  let e = make () in
  let p = committed_alloc e 1024 in
  Engine.with_tx e (fun tx ->
      Engine.add tx p;
      Alcotest.check ranges "declared but unwritten: nothing to copy" []
        (Engine.dirty_ranges tx))

(* First line boundary at least 64 B into [p]'s payload. *)
let inner_line p = (p / 64) + 2

let test_sub_line_write () =
  let e = make () in
  let p = committed_alloc e 1024 in
  let l = inner_line p in
  Engine.with_tx e (fun tx ->
      Engine.add tx p;
      Engine.write_int64 tx p ((l * 64) + 16 - p) 7L;
      Alcotest.check ranges "one line" [ lines (extent e p) ~first:l ~last:l ]
        (Engine.dirty_ranges tx);
      (* A second write three lines on is a separate run. *)
      Engine.write_int64 tx p (((l + 3) * 64) - p) 8L;
      Alcotest.check ranges "two runs"
        [ lines (extent e p) ~first:l ~last:l;
          lines (extent e p) ~first:(l + 3) ~last:(l + 3) ]
        (Engine.dirty_ranges tx))

let test_straddling_write () =
  let e = make () in
  let p = committed_alloc e 1024 in
  let l = inner_line p in
  Engine.with_tx e (fun tx ->
      Engine.add tx p;
      Engine.write_string tx p (((l + 1) * 64) - 8 - p) (String.make 16 'x');
      Alcotest.check ranges "two lines, one run"
        [ lines (extent e p) ~first:l ~last:(l + 1) ]
        (Engine.dirty_ranges tx))

let test_field_intent () =
  let e = make () in
  let p = committed_alloc e 1024 in
  Engine.with_tx e (fun tx ->
      Engine.add_field tx p 100 8;
      Engine.write_int64 tx p 100 1L;
      (* The run is clipped to the declared field, not widened to its line. *)
      Alcotest.check ranges "the field" [ { Heap.off = p + 100; len = 8 } ]
        (Engine.dirty_ranges tx))

let test_wide_range () =
  let e = make () in
  let p = committed_alloc e 8192 in
  let base = inner_line p * 64 in
  Engine.with_tx e (fun tx ->
      Engine.add tx p;
      Engine.write_int64 tx p 0 1L;
      Alcotest.check ranges "extent wider than 62 lines: whole range" [ extent e p ]
        (Engine.dirty_ranges tx));
  Engine.with_tx e (fun tx ->
      (* Exactly 62 lines still get a mask; 63 get the sentinel. *)
      let r62 = { Heap.off = base; len = 62 * 64 } in
      let r63 = { Heap.off = base + (64 * 64); len = 63 * 64 } in
      Engine.add_range tx r62;
      Engine.add_range tx r63;
      Engine.write_int64 tx p (base + (61 * 64) - p) 2L;
      Engine.write_int64 tx p (base + (64 * 64) - p) 3L;
      Alcotest.check ranges "62 lines masked, 63 whole"
        [ { Heap.off = base + (61 * 64); len = 64 }; r63 ]
        (Engine.dirty_ranges tx))

let test_alloc () =
  let e = make () in
  ignore (committed_alloc e 64);
  Engine.with_tx e (fun tx ->
      let p = Engine.alloc tx 256 in
      Alcotest.check ranges "the whole fresh extent, no allocator word" [ extent e p ]
        (Engine.dirty_ranges tx));
  (* A reused extent stores its whole extent too, and nothing else. *)
  let q = committed_alloc e 256 in
  Engine.with_tx e (fun tx -> Engine.free tx q);
  Engine.with_tx e (fun tx ->
      Alcotest.(check int) "reuses the freed object" q (Engine.alloc tx 256);
      Alcotest.check ranges "the whole reused extent" [ extent e q ] (Engine.dirty_ranges tx))

let test_free () =
  let e = make () in
  let p = committed_alloc e 256 in
  let expected = [ lines (extent e p) ~first:((p - 8) / 64) ~last:((p - 8) / 64) ] in
  Engine.with_tx e (fun tx ->
      Engine.free tx p;
      Alcotest.check ranges "the flags word's line, no free-list head" expected
        (Engine.dirty_ranges tx));
  (* Declaring the free ahead (plan-then-apply) marks the same bytes. *)
  let e = make () in
  let p = committed_alloc e 256 in
  Engine.with_tx e (fun tx ->
      Engine.declare_free tx p;
      Alcotest.check ranges "declared, not yet freed" [] (Engine.dirty_ranges tx);
      Engine.free tx p;
      Alcotest.check ranges "declared free" expected (Engine.dirty_ranges tx))

let test_set_root () =
  let e = make () in
  let p = committed_alloc e 64 in
  Engine.with_tx e (fun tx ->
      Engine.set_root tx p;
      Alcotest.check ranges "the root word" [ Heap.root_range (Engine.heap e) ]
        (Engine.dirty_ranges tx))

(* Commit hands the applier only the dirty lines: the backup receives
   exactly those bytes, and [bytes_saved] counts the rest. *)
let test_commit_copies_dirty_lines () =
  let e = make () in
  let p = committed_alloc e 1024 in
  Engine.drain_backup e;
  let l = inner_line p in
  let copied () = (Region.counters (backup_region e)).Region.bytes_copied in
  let saved () = (Engine.metrics e).Engine.bytes_saved in
  let c0 = copied () and s0 = saved () in
  Engine.with_tx e (fun tx ->
      Engine.add tx p;
      Engine.write_int64 tx p ((l * 64) - p) 9L);
  Engine.drain_backup e;
  Alcotest.(check int) "one line copied" 64 (copied () - c0);
  Alcotest.(check int) "the rest of the extent saved" ((extent e p).Heap.len - 64)
    (saved () - s0);
  Alcotest.(check bool) "backup equals main" true (backup_equals_main e)

(* Abort after a clipped commit: the clean lines the applier skipped must
   already hold the committed bytes, or the rollback would restore stale
   ones. *)
let test_abort_after_clipped_commit () =
  let e = make () in
  let p = committed_alloc e 1024 in
  Engine.with_tx e (fun tx ->
      Engine.add tx p;
      for w = 0 to 127 do
        Engine.write_int64 tx p (w * 8) (Int64.of_int w)
      done);
  Engine.with_tx e (fun tx ->
      Engine.add tx p;
      Engine.write_int64 tx p 512 1000L);
  let tx = Engine.begin_tx e in
  Engine.add tx p;
  for w = 0 to 127 do
    Engine.write_int64 tx p (w * 8) (-1L)
  done;
  Engine.abort tx;
  for w = 0 to 127 do
    Alcotest.(check int64) (Printf.sprintf "word %d" w)
      (if w = 64 then 1000L else Int64.of_int w)
      (Engine.peek_int64 e p (w * 8))
  done;
  Engine.drain_backup e;
  Alcotest.(check bool) "backup equals main" true (backup_equals_main e)

(* A crash between a clipped task's commit and its lazy apply: recovery
   rolls the committed record forward over its full logged ranges, and the
   backup then verifies. *)
let test_crash_before_apply () =
  List.iter
    (fun seed ->
      let e = make ~seed () in
      let p = committed_alloc e 1024 in
      let q = committed_alloc e 4096 in
      Engine.drain_backup e;
      Engine.with_tx e (fun tx ->
          Engine.add tx p;
          Engine.write_int64 tx p 200 11L;
          Engine.add_field tx q 4000 8;
          Engine.write_int64 tx q 4000 12L;
          Alcotest.(check int) "clipped to a line and a field" (64 + 8)
            (List.fold_left (fun n r -> n + r.Heap.len) 0 (Engine.dirty_ranges tx)));
      Alcotest.(check bool) "the task is still queued" true
        (Applier.queued (Option.get (Engine.applier e)) > 0);
      Engine.crash e;
      Engine.recover e;
      Alcotest.(check int64) "p committed" 11L (Engine.peek_int64 e p 200);
      Alcotest.(check int64) "q committed" 12L (Engine.peek_int64 e q 4000);
      (match Engine.verify_backup e with
      | Ok () -> ()
      | Error m -> Alcotest.failf "seed %d: %s" seed m);
      Alcotest.(check bool) "backup equals main" true (backup_equals_main e);
      (* The recovered backup still rolls a later transaction back. *)
      let tx = Engine.begin_tx e in
      Engine.add tx p;
      Engine.write_int64 tx p 200 (-1L);
      Engine.abort tx;
      Alcotest.(check int64) "abort after recovery" 11L (Engine.peek_int64 e p 200))
    [ 1; 2; 3; 4 ]

(* --- the whole-region invariant ---------------------------------------------- *)

(* One random operation: [(kind, a, b, c)] with small non-negative ints,
   interpreted against the live-object model. *)
let sizes = [| 24; 64; 200; 1000; 4096 |]

let apply_op e tx live (kind, a, b, c) =
  let pick () = List.nth !live (a mod List.length !live) in
  let write p ~whole =
    let cap = Heap.capacity (Engine.heap e) p in
    if whole then begin
      let len = 1 + (c mod min cap 150) in
      let field = (b * 37) mod (cap - len + 1) in
      Engine.add tx p;
      Engine.write_string tx p field (String.make len (Char.chr (65 + (c mod 26))))
    end
    else begin
      (* Field intents are deduplicated by start offset, so declare whole
         words: every write then lies inside the intent of its start. *)
      let field = 8 * ((b * 37) mod (cap / 8)) in
      Engine.add_field tx p field 8;
      Engine.write_int64 tx p field (Int64.of_int c)
    end
  in
  match kind mod 6 with
  | 0 ->
      let p = Engine.alloc tx sizes.(a mod Array.length sizes) in
      live := p :: !live;
      write p ~whole:true
  | 1 ->
      let ps = Engine.alloc_many tx [ sizes.(b mod 5); sizes.(c mod 5) ] in
      live := ps @ !live
  | 2 when !live <> [] -> write (pick ()) ~whole:(b mod 2 = 0)
  | 3 when !live <> [] ->
      let p = pick () in
      if b mod 2 = 0 then Engine.declare_free tx p;
      Engine.free tx p;
      live := List.filter (( <> ) p) !live
  | 4 -> Engine.set_root tx (if !live = [] then Heap.null else pick ())
  | _ when !live <> [] ->
      (* Several writes into one object: sub-line, straddling, repeated. *)
      let p = pick () in
      for i = 0 to b mod 4 do
        ignore i;
        write p ~whole:true
      done
  | _ -> ()

let tx_gen =
  QCheck.(
    pair bool
      (list_of_size Gen.(1 -- 6)
         (quad (int_bound 5) (int_bound 50) (int_bound 50) (int_bound 200))))

let prop_simple =
  QCheck.Test.make ~name:"kamino-simple: backup = main over the whole heap after every drain"
    ~count:60
    QCheck.(list_of_size Gen.(1 -- 25) tx_gen)
    (fun txs ->
      let e = make () in
      let live = ref [] in
      List.for_all
        (fun (abort, ops) ->
          let before = !live in
          let tx = Engine.begin_tx e in
          List.iter (apply_op e tx live) ops;
          if abort then begin
            Engine.abort tx;
            live := before
          end
          else Engine.commit tx;
          Engine.drain_backup e;
          backup_equals_main e)
        txs
      && Engine.verify_backup e = Ok ())

(* A Kamino chain head: replicated puts, deletes and multi-key batches
   (one transaction each) run on a Kamino-simple head engine. *)
let head_op (kind, k, len, k2) =
  let v n = String.make (1 + (n mod 120)) (Char.chr (97 + (n mod 26))) in
  match kind mod 4 with
  | 0 | 1 -> Op.Put (k mod 40, v len)
  | 2 -> Op.Delete (k mod 40)
  | _ -> Op.Batch [ Op.Put (k mod 40, v len); Op.Put (k2 mod 40, v (len + 7)) ]

let prop_chain_head =
  QCheck.Test.make ~name:"kamino chain head: backup = main over the whole heap after every drain"
    ~count:25
    QCheck.(
      list_of_size Gen.(1 -- 30)
        (quad (int_bound 3) (int_bound 100) (int_bound 200) (int_bound 100)))
    (fun ops ->
      let c =
        Async.create
          ~engine_config:{ config with Engine.heap_bytes = 2 lsl 20; log_slots = 64 }
          ~hop_ns:5000 ~rpc_ns:500 ~slot_bytes:512 ~mode:(Async.Kamino_chain { alpha = None }) ~f:2
          ~value_size:128 ~node_size:512 ~seed:17 ()
      in
      let at = ref 0 in
      List.for_all
        (fun op ->
          at := !at + 3000;
          Async.submit c ~at:!at (head_op op) ~on_complete:(fun _ -> ());
          ignore (Async.run c);
          let e = Async.engine_at c (Async.head_id c) in
          Engine.drain_backup e;
          backup_equals_main e)
        ops
      && Async.replicas_consistent c = Ok ())

let () =
  Alcotest.run "dirty_lines"
    [
      ( "mask",
        [
          Alcotest.test_case "declared, unwritten" `Quick test_unwritten;
          Alcotest.test_case "sub-line write" `Quick test_sub_line_write;
          Alcotest.test_case "write straddling two lines" `Quick test_straddling_write;
          Alcotest.test_case "field intent" `Quick test_field_intent;
          Alcotest.test_case "range wider than 62 lines" `Quick test_wide_range;
          Alcotest.test_case "alloc" `Quick test_alloc;
          Alcotest.test_case "free" `Quick test_free;
          Alcotest.test_case "set_root" `Quick test_set_root;
        ] );
      ( "propagation",
        [
          Alcotest.test_case "commit copies dirty lines" `Quick
            test_commit_copies_dirty_lines;
          Alcotest.test_case "abort after a clipped commit" `Quick
            test_abort_after_clipped_commit;
          Alcotest.test_case "crash before the lazy apply" `Quick test_crash_before_apply;
        ] );
      ( "qcheck",
        [
          QCheck_alcotest.to_alcotest prop_simple;
          QCheck_alcotest.to_alcotest prop_chain_head;
        ] );
    ]
