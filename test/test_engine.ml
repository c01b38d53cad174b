(* Functional tests of the transaction engine across every kind: commit and
   abort semantics, allocation, CoW redirection, locking/virtual-time
   behaviour, and the backup applier. *)

module Clock = Kamino_sim.Clock
module Region = Kamino_nvm.Region
module Heap = Kamino_heap.Heap
module Engine = Kamino_core.Engine
module Backup = Kamino_core.Backup
module Applier = Kamino_core.Applier
module Locks = Kamino_core.Locks

let small_config =
  {
    Engine.default_config with
    Engine.heap_bytes = 1 lsl 20;
    log_slots = 32;
    data_log_bytes = 1 lsl 18;
  }

let all_kinds =
  [
    Engine.No_logging;
    Engine.Undo_logging;
    Engine.Cow;
    Engine.Kamino_simple;
    Engine.Kamino_dynamic { alpha = 0.5; policy = Backup.Lru_policy };
  ]

let atomic_kinds = List.tl all_kinds

let make kind = Engine.create ~config:small_config ~kind ~seed:42 ()

let for_each_kind kinds f =
  List.iter (fun k -> f (Engine.kind_name k) (make k)) kinds

(* --- commit semantics --- *)

let test_commit_visible () =
  for_each_kind all_kinds (fun name e ->
      let p =
        Engine.with_tx e (fun tx ->
            let p = Engine.alloc tx 64 in
            Engine.write_int64 tx p 0 123L;
            Engine.write_string tx p 8 "hello";
            p)
      in
      Alcotest.(check int64) (name ^ ": int64 committed") 123L (Engine.peek_int64 e p 0);
      Alcotest.(check string) (name ^ ": string committed") "hello" (Engine.peek_string e p 8 5))

let test_read_own_writes () =
  for_each_kind all_kinds (fun name e ->
      Engine.with_tx e (fun tx ->
          let p = Engine.alloc tx 64 in
          Engine.write_int tx p 0 7;
          Alcotest.(check int) (name ^ ": reads own write") 7 (Engine.read_int tx p 0));
      (* and across two transactions on an existing object *)
      let p = Engine.with_tx e (fun tx -> Engine.alloc tx 64) in
      Engine.with_tx e (fun tx ->
          Engine.add tx p;
          Engine.write_int tx p 8 21;
          Alcotest.(check int) (name ^ ": second tx sees own write") 21
            (Engine.read_int tx p 8)))

let test_abort_restores () =
  for_each_kind atomic_kinds (fun name e ->
      let p =
        Engine.with_tx e (fun tx ->
            let p = Engine.alloc tx 64 in
            Engine.write_int64 tx p 0 1L;
            p)
      in
      let tx = Engine.begin_tx e in
      Engine.add tx p;
      Engine.write_int64 tx p 0 999L;
      Engine.abort tx;
      Alcotest.(check int64) (name ^ ": abort restores value") 1L (Engine.peek_int64 e p 0))

let test_abort_undoes_alloc () =
  for_each_kind atomic_kinds (fun name e ->
      let live () = (Heap.stats (Engine.heap e)).Heap.live_objects in
      let live_before = live () in
      let tx = Engine.begin_tx e in
      let p = Engine.alloc tx 64 in
      Engine.write_int64 tx p 0 5L;
      Engine.abort tx;
      Alcotest.(check int)
        (name ^ ": allocation rolled back")
        live_before (live ());
      Alcotest.(check bool) (name ^ ": heap still valid") true
        (Heap.validate (Engine.heap e) = Ok ()))

let test_abort_undoes_free () =
  for_each_kind atomic_kinds (fun name e ->
      let p =
        Engine.with_tx e (fun tx ->
            let p = Engine.alloc tx 64 in
            Engine.write_int64 tx p 0 77L;
            p)
      in
      let tx = Engine.begin_tx e in
      Engine.free tx p;
      Engine.abort tx;
      Alcotest.(check bool) (name ^ ": object still allocated") true
        (Heap.is_allocated (Engine.heap e) p);
      Alcotest.(check int64) (name ^ ": contents intact") 77L (Engine.peek_int64 e p 0);
      Alcotest.(check bool) (name ^ ": heap valid") true
        (Heap.validate (Engine.heap e) = Ok ()))

let test_free_then_realloc () =
  for_each_kind all_kinds (fun name e ->
      let p = Engine.with_tx e (fun tx -> Engine.alloc tx 128) in
      Engine.with_tx e (fun tx -> Engine.free tx p);
      let q = Engine.with_tx e (fun tx -> Engine.alloc tx 128) in
      Alcotest.(check int) (name ^ ": slot reused") p q;
      Alcotest.(check bool) (name ^ ": heap valid") true
        (Heap.validate (Engine.heap e) = Ok ()))

let test_cow_add_write_free_commit () =
  (* The tricky CoW path: modify a redirected object, then free it in the
     same transaction, then commit. *)
  let e = make Engine.Cow in
  let p =
    Engine.with_tx e (fun tx ->
        let p = Engine.alloc tx 64 in
        Engine.write_int64 tx p 0 1L;
        p)
  in
  Engine.with_tx e (fun tx ->
      Engine.add tx p;
      Engine.write_int64 tx p 0 2L;
      Engine.free tx p);
  Alcotest.(check bool) "object freed" false (Heap.is_allocated (Engine.heap e) p);
  Alcotest.(check bool) "heap valid" true (Heap.validate (Engine.heap e) = Ok ());
  (* and the slot is reusable *)
  let q = Engine.with_tx e (fun tx -> Engine.alloc tx 64) in
  Alcotest.(check int) "slot reused" p q

let test_cow_add_write_free_abort () =
  let e = make Engine.Cow in
  let p =
    Engine.with_tx e (fun tx ->
        let p = Engine.alloc tx 64 in
        Engine.write_int64 tx p 0 1L;
        p)
  in
  let tx = Engine.begin_tx e in
  Engine.add tx p;
  Engine.write_int64 tx p 0 2L;
  Engine.free tx p;
  Engine.abort tx;
  Alcotest.(check bool) "object restored" true (Heap.is_allocated (Engine.heap e) p);
  Alcotest.(check int64) "original value restored" 1L (Engine.peek_int64 e p 0);
  Alcotest.(check bool) "heap valid" true (Heap.validate (Engine.heap e) = Ok ())

let test_no_logging_abort_raises () =
  let e = make Engine.No_logging in
  let tx = Engine.begin_tx e in
  let _ = Engine.alloc tx 64 in
  Alcotest.(check bool) "abort raises" true
    (try
       Engine.abort tx;
       false
     with Engine.Error (Engine.Abort_unsupported _) -> true)

let test_write_without_intent_rejected () =
  for_each_kind atomic_kinds (fun name e ->
      let p = Engine.with_tx e (fun tx -> Engine.alloc tx 64) in
      let tx = Engine.begin_tx e in
      Alcotest.(check bool) (name ^ ": undeclared write rejected") true
        (try
           Engine.write_int64 tx p 0 1L;
           false
         with Engine.Error (Engine.Missing_intent _) -> true);
      (try Engine.abort tx with _ -> ()))

(* --- typed accessors --- *)

(* Every typed accessor on every kind, through one field-granular intent,
   [16, 64) of a 128 B object: writes at its first and last bytes and in
   between, read back inside the transaction (a [read_prefixed] whose
   bound runs past the field reads in pieces under CoW). Under CoW the
   main heap keeps the old bytes until commit. After a commit the heap
   holds the new bytes; after an abort, on kinds that roll back, the old
   ones. *)
let test_typed_accessors () =
  let field = 16 and flen = 48 in
  let expected =
    let b = Bytes.make flen '\000' in
    Bytes.set_int64_le b 0 0x1122334455667788L;
    Bytes.set_int64_le b 8 (-42L);
    Bytes.blit_string "abcd" 0 b 16 4;
    Bytes.set_int64_le b 24 14L;
    Bytes.blit_string "efghijklmnopqr" 0 b 32 14;
    Bytes.set_uint8 b 47 0xA5;
    b
  in
  List.iter
    (fun kind ->
      let name = Engine.kind_name kind in
      let e = make kind in
      let p = Engine.with_tx e (fun tx -> Engine.alloc tx 128) in
      let old = Engine.peek_bytes e p field flen in
      let run ~commit =
        let ctx = Printf.sprintf "%s, %s" name (if commit then "commit" else "abort") in
        let tx = Engine.begin_tx e in
        Engine.add_field tx p field flen;
        Engine.write_int64 tx p field 0x1122334455667788L;
        Engine.write_int tx p (field + 8) (-42);
        Engine.write_bytes tx p (field + 16) (Bytes.of_string "abcd");
        Engine.write_int64 tx p (field + 24) 14L;
        Engine.write_string tx p (field + 32) "efghijklmnopqr";
        Engine.write_byte tx p (field + flen - 1) 0xA5;
        Alcotest.(check int64) (ctx ^ ": read_int64, first byte") 0x1122334455667788L
          (Engine.read_int64 tx p field);
        Alcotest.(check int) (ctx ^ ": read_int") (-42) (Engine.read_int tx p (field + 8));
        Alcotest.(check bytes) (ctx ^ ": read_bytes") (Bytes.of_string "abcd")
          (Engine.read_bytes tx p (field + 16) 4);
        Alcotest.(check int) (ctx ^ ": read_byte, last byte") 0xA5
          (Engine.read_byte tx p (field + flen - 1));
        Alcotest.(check string) (ctx ^ ": read_prefixed inside the field") "efghijklmnopqr"
          (Engine.read_prefixed tx p (field + 24) ~max:14);
        Alcotest.(check string) (ctx ^ ": read_prefixed past the field") "efghijklmnopqr"
          (Engine.read_prefixed tx p (field + 24) ~max:64);
        Alcotest.(check bytes) (ctx ^ ": the whole field") expected
          (Engine.read_bytes tx p field flen);
        Alcotest.(check bytes) (ctx ^ ": the main heap inside the transaction")
          (if kind = Engine.Cow then old else expected)
          (Engine.peek_bytes e p field flen);
        if commit then Engine.commit tx else Engine.abort tx;
        Alcotest.(check bytes) (ctx ^ ": the main heap after")
          (if commit then expected else old)
          (Engine.peek_bytes e p field flen)
      in
      if List.mem kind atomic_kinds then run ~commit:false;
      run ~commit:true)
    (all_kinds @ [ Engine.Intent_only ])

(* A write that straddles two field intents has no covering intent,
   except on kamino-dynamic, whose [add_field] declares the whole object. *)
let test_straddling_write () =
  List.iter
    (fun kind ->
      let name = Engine.kind_name kind in
      let e = make kind in
      let p = Engine.with_tx e (fun tx -> Engine.alloc tx 64) in
      let tx = Engine.begin_tx e in
      Engine.add_field tx p 0 16;
      Engine.add_field tx p 16 16;
      let raised =
        try
          Engine.write_int64 tx p 12 7L;
          None
        with Engine.Error (Engine.Missing_intent { off; len }) -> Some (off - p, len)
      in
      let object_granular = match kind with Engine.Kamino_dynamic _ -> true | _ -> false in
      Alcotest.(check (option (pair int int))) (name ^ ": straddling write")
        (if object_granular then None else Some (12, 8))
        raised;
      Engine.commit tx)
    (all_kinds @ [ Engine.Intent_only ])

let test_serial_tx_enforced () =
  let e = make Engine.Kamino_simple in
  let _tx = Engine.begin_tx e in
  Alcotest.(check bool) "second begin rejected" true
    (try
       ignore (Engine.begin_tx e);
       false
     with Engine.Error Engine.Tx_already_active -> true)

let test_set_root () =
  for_each_kind atomic_kinds (fun name e ->
      let p =
        Engine.with_tx e (fun tx ->
            let p = Engine.alloc tx 64 in
            Engine.set_root tx p;
            p)
      in
      Alcotest.(check int) (name ^ ": root committed") p (Engine.root e);
      (* abort of a root change restores it *)
      let q = Engine.with_tx e (fun tx -> Engine.alloc tx 64) in
      let tx = Engine.begin_tx e in
      Engine.set_root tx q;
      Engine.abort tx;
      Alcotest.(check int) (name ^ ": root change aborted") p (Engine.root e))

let test_add_field_semantics () =
  for_each_kind atomic_kinds (fun name e ->
      let p =
        Engine.with_tx e (fun tx ->
            let p = Engine.alloc tx 1024 in
            Engine.write_int64 tx p 0 1L;
            Engine.write_int64 tx p 512 2L;
            p)
      in
      (* field-granular intent: only the declared bytes are writable *)
      Engine.with_tx e (fun tx ->
          Engine.add_field tx p 512 8;
          Engine.write_int64 tx p 512 22L;
          Alcotest.(check int64) (name ^ ": reads own field write") 22L
            (Engine.read_int64 tx p 512));
      Alcotest.(check int64) (name ^ ": field committed") 22L (Engine.peek_int64 e p 512);
      Alcotest.(check int64) (name ^ ": rest untouched") 1L (Engine.peek_int64 e p 0);
      (* a write outside the declared field is rejected — except on the
         dynamic backup, where add_field deliberately falls back to
         whole-object intents (per-object copy tracking, as in the paper) *)
      (match Engine.kind e with
      | Engine.Kamino_dynamic _ -> ()
      | _ ->
          let tx = Engine.begin_tx e in
          Engine.add_field tx p 0 8;
          Alcotest.(check bool) (name ^ ": outside field rejected") true
            (try
               Engine.write_int64 tx p 512 0L;
               false
             with Engine.Error (Engine.Missing_intent _) -> true);
          (try Engine.abort tx with _ -> ()));
      (* abort of a field write restores only via the field range *)
      let tx = Engine.begin_tx e in
      Engine.add_field tx p 512 8;
      Engine.write_int64 tx p 512 99L;
      Engine.abort tx;
      Alcotest.(check int64) (name ^ ": field abort restores") 22L (Engine.peek_int64 e p 512);
      (* invalid field ranges rejected *)
      let tx = Engine.begin_tx e in
      Alcotest.(check bool) (name ^ ": oversized field rejected") true
        (try
           Engine.add_field tx p 1020 16;
           false
         with Invalid_argument _ -> true);
      (try Engine.abort tx with _ -> ()))

let test_add_field_crash_recovery () =
  List.iter
    (fun kind ->
      let name = Engine.kind_name kind in
      let e = make kind in
      let p =
        Engine.with_tx e (fun tx ->
            let p = Engine.alloc tx 1024 in
            Engine.write_int64 tx p 256 7L;
            p)
      in
      (* crash mid-transaction with a field intent in flight *)
      let tx = Engine.begin_tx e in
      Engine.add_field tx p 256 8;
      Engine.write_int64 tx p 256 1000L;
      Engine.crash e;
      Engine.recover e;
      Alcotest.(check int64) (name ^ ": field rolled back after crash") 7L
        (Engine.peek_int64 e p 256))
    [ Engine.Undo_logging; Engine.Cow; Engine.Kamino_simple ]

let test_add_field_whole_object_covers () =
  let e = make Engine.Kamino_simple in
  let p = Engine.with_tx e (fun tx -> Engine.alloc tx 256) in
  Engine.with_tx e (fun tx ->
      Engine.add tx p;
      (* a later field declaration is subsumed by the whole-object intent *)
      Engine.add_field tx p 8 8;
      Engine.write_int64 tx p 8 5L);
  Alcotest.(check int64) "covered write committed" 5L (Engine.peek_int64 e p 8)

(* A field written through [add_field] keeps its value when the same
   transaction then declares a range overlapping it — the whole object or
   a wider field: in the transaction, once committed, and rolled back by
   an abort. Under CoW a new working copy starts from the transaction's
   view of its range, earlier working copies included. *)
let overlap_declares =
  [
    ("whole object", fun tx p -> Engine.add tx p);
    ("overlapping field", fun tx p -> Engine.add_field tx p 72 24);
  ]

let overlap_init e =
  Engine.with_tx e (fun tx ->
      let p = Engine.alloc tx 128 in
      Engine.write_int tx p 80 5;
      p)

let overlap_tx widen tx p =
  Engine.add_field tx p 80 8;
  Engine.write_int tx p 80 0;
  widen tx p

let overlap_engine spec = Tx_model.create spec ~config:small_config ~seed:42 ~init:overlap_init

let test_field_write_survives_overlap () =
  List.iter
    (fun (kname, spec, atomic) ->
      if atomic then
        List.iter
          (fun (wname, widen) ->
            let ctx = Printf.sprintf "%s, %s" kname wname in
            let e, p = overlap_engine spec in
            Engine.with_tx e (fun tx ->
                overlap_tx widen tx p;
                Alcotest.(check int) (ctx ^ ": read in the transaction") 0
                  (Engine.read_int tx p 80));
            Alcotest.(check int) (ctx ^ ": committed") 0 (Engine.peek_int e p 80);
            let e, p = overlap_engine spec in
            let tx = Engine.begin_tx e in
            overlap_tx widen tx p;
            Engine.abort tx;
            Alcotest.(check int) (ctx ^ ": abort restores") 5 (Engine.peek_int e p 80))
          overlap_declares)
    Tx_model.kinds

(* The same transactions on CoW, crashed at every fence: recovery shows
   the word as 5 (rolled back) or 0 (committed), never anything else. *)
let test_field_write_survives_overlap_sweep () =
  List.iter
    (fun (wname, widen) ->
      let ctx = "cow, " ^ wname in
      Fence_sweep.require_split ~ctx
        (Fence_sweep.sweep ~ctx
           ~setup:(fun () -> overlap_engine (Tx_model.Plain Engine.Cow))
           ~crash:(fun (e, _) -> Engine.crash e)
           ~recover:(fun (e, _) -> Engine.recover e)
           ~op:(fun (e, p) -> Engine.with_tx e (fun tx -> overlap_tx widen tx p))
           ~drain:(fun (e, _) -> Engine.drain_backup e)
           ~observe:(fun (e, p) -> string_of_int (Engine.peek_int e p 80))
           ~check:(fun (e, _) -> Tx_model.check_engine e)
           ~expect:("5", "0") ()))
    overlap_declares

let test_with_tx_aborts_on_exception () =
  let e = make Engine.Undo_logging in
  let p =
    Engine.with_tx e (fun tx ->
        let p = Engine.alloc tx 64 in
        Engine.write_int64 tx p 0 10L;
        p)
  in
  (try
     Engine.with_tx e (fun tx ->
         Engine.add tx p;
         Engine.write_int64 tx p 0 11L;
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int64) "exception rolled back" 10L (Engine.peek_int64 e p 0)

(* A kind that cannot roll back finishes the handle on abort; the
   caller's exception, not [Abort_unsupported], must come out of
   [with_tx]. *)
let test_with_tx_keeps_exception () =
  List.iter
    (fun kind ->
      let e = make kind in
      let name = Engine.kind_name kind in
      let p = Engine.with_tx e (fun tx -> Engine.alloc tx 64) in
      match
        Engine.with_tx e (fun tx ->
            Engine.add tx p;
            Engine.write_int64 tx p 0 1L;
            raise Exit)
      with
      | () -> Alcotest.failf "%s: no exception" name
      | exception Exit -> ()
      | exception x -> Alcotest.failf "%s: %s replaced Exit" name (Printexc.to_string x))
    [ Engine.Intent_only; Engine.No_logging ]

(* --- Kamino-specific behaviour --- *)

(* A commit seals its mark under the write set's fence when hashing the
   write set (one load per logged range) costs less than that fence, and
   otherwise marks it under a fence of its own. *)
let test_sealed_commit_rule () =
  let cm = small_config.Engine.cost in
  let beats bytes = Kamino_nvm.Cost_model.loads_beat_fence cm ~loads:1 ~bytes in
  Alcotest.(check (pair bool bool)) "one range: 1959 B beat a fence, 1960 B do not" (true, false)
    (beats 1959, beats 1960);
  List.iter
    (fun kind ->
      let e = make kind in
      let name = Engine.kind_name kind in
      let small, big =
        Engine.with_tx e (fun tx -> (Engine.alloc tx 256, Engine.alloc tx 4096))
      in
      let fences f =
        Engine.drain_backup e;
        let before = (Engine.main_counters e).Region.fences in
        Engine.with_tx e f;
        (Engine.main_counters e).Region.fences - before
      in
      (* Warm the dynamic backup's copies, so no miss fences below. *)
      ignore (fences (fun tx -> Engine.add tx small; Engine.add tx big));
      Alcotest.(check int) (name ^ ": 256 B sealed, two fences") 2
        (fences (fun tx ->
             Engine.add tx small;
             Engine.write_int64 tx small 0 1L));
      Alcotest.(check int) (name ^ ": 4 KiB marked, three fences") 3
        (fences (fun tx ->
             Engine.add tx big;
             Engine.write_int64 tx big 0 1L)))
    [ Engine.Kamino_simple; Engine.Kamino_dynamic { alpha = 0.5; policy = Backup.Lru_policy } ]

(* [durable_outcome] on a crashed image: a sealed commit not yet applied
   rolls forward, an in-flight record and a sealed mark whose write set
   no longer hashes to its checksum roll back, and a released or unknown
   transaction is absent. Recovery then does exactly that. *)
let test_durable_outcome () =
  List.iter
    (fun kind ->
      let name = Engine.kind_name kind in
      let e =
        Engine.create
          ~config:{ small_config with Engine.crash_mode = Region.Drop_unflushed }
          ~kind ~seed:42 ()
      in
      let p, q, r =
        Engine.with_tx e (fun tx ->
            let p = Engine.alloc tx 64 and q = Engine.alloc tx 64 and r = Engine.alloc tx 64 in
            List.iter (fun x -> Engine.write_int64 tx x 0 1L) [ p; q; r ];
            (p, q, r))
      in
      Engine.drain_backup e;
      let released = Engine.last_tx_id e in
      let set x v =
        Engine.with_tx e (fun tx ->
            Engine.add tx x;
            Engine.write_int64 tx x 0 v;
            Engine.write_int64 tx x 8 v)
      in
      set p 2L;
      let sealed = Engine.last_tx_id e in
      set r 2L;
      let torn = Engine.last_tx_id e in
      (* The torn mark: one of r's bytes reverts after its fence, as if
         the line had never been written back. *)
      let main = Engine.main_region e in
      Region.write_int64 main r 1L;
      Region.persist main r 8;
      let tx = Engine.begin_tx e in
      Engine.add tx q;
      Engine.write_int64 tx q 0 2L;
      let running = Engine.last_tx_id e in
      Engine.crash e;
      let outcome id =
        match Engine.durable_outcome e id with
        | Engine.Committed -> "committed"
        | Engine.Aborted -> "aborted"
        | Engine.Absent -> "absent"
      in
      Alcotest.(check (list string))
        (name ^ ": released, sealed, torn, running, unknown")
        [ "absent"; "committed"; "aborted"; "aborted"; "absent" ]
        (List.map outcome [ released; sealed; torn; running; running + 1 ]);
      Engine.recover e;
      Alcotest.(check (list int64))
        (name ^ ": p rolled forward, r and q back")
        [ 2L; 2L; 1L; 0L; 1L ]
        (List.map
           (fun (x, w) -> Engine.peek_int64 e x w)
           [ (p, 0); (p, 8); (r, 0); (r, 8); (q, 0) ]);
      Alcotest.(check bool) (name ^ ": backup agrees") true (Engine.verify_backup e = Ok ()))
    [ Engine.Kamino_simple; Engine.Kamino_dynamic { alpha = 0.5; policy = Backup.Lru_policy } ];
  let e = make Engine.Undo_logging in
  Alcotest.(check bool) "undo: unsupported" true
    (match Engine.durable_outcome e 1 with
    | _ -> false
    | exception Engine.Error (Engine.Unsupported _) -> true)

let test_kamino_backup_catches_up () =
  let e = make Engine.Kamino_simple in
  let p =
    Engine.with_tx e (fun tx ->
        let p = Engine.alloc tx 64 in
        Engine.write_int64 tx p 0 42L;
        p)
  in
  Engine.drain_backup e;
  (* the backup region now holds the committed value at the same offset *)
  match Engine.backup e with
  | Some b ->
      ignore b;
      let m = Engine.metrics e in
      Alcotest.(check bool) "applier ran" true (m.Engine.applier_tasks >= 1);
      (match Engine.verify_backup e with
      | Ok () -> ()
      | Error err -> Alcotest.failf "backup invariant: %s" err);
      ignore p
  | None -> Alcotest.fail "kamino engine has a backup"

let test_kamino_abort_after_committed_predecessor () =
  (* Commit a value, then abort an update of the same object: rollback must
     restore the *committed* value, i.e. the backup had to catch up before
     the second transaction could write. *)
  let e = make Engine.Kamino_simple in
  let p =
    Engine.with_tx e (fun tx ->
        let p = Engine.alloc tx 64 in
        Engine.write_int64 tx p 0 1L;
        p)
  in
  Engine.with_tx e (fun tx ->
      Engine.add tx p;
      Engine.write_int64 tx p 0 2L);
  (* no explicit drain: the dependent add must sync the applier itself *)
  let tx = Engine.begin_tx e in
  Engine.add tx p;
  Engine.write_int64 tx p 0 3L;
  Engine.abort tx;
  Alcotest.(check int64) "abort restores last committed value" 2L (Engine.peek_int64 e p 0)

let test_kamino_dependent_tx_waits () =
  let e = make Engine.Kamino_simple in
  (* A large object, so propagating it to the backup takes longer than the
     fixed transaction overheads and a back-to-back dependent writer really
     has to wait. *)
  let p =
    Engine.with_tx e (fun tx ->
        let p = Engine.alloc tx 65536 in
        Engine.write_int64 tx p 0 1L;
        p)
  in
  Engine.drain_backup e;
  (* First writer commits at T; its lock releases at the applier finish
     time > T. A dependent transaction starting immediately must observe a
     lock wait; an independent one must not. *)
  Engine.with_tx e (fun tx ->
      Engine.add tx p;
      Engine.write_int64 tx p 0 2L);
  let waits_before = (Engine.metrics e).Engine.lock_wait_events in
  Engine.with_tx e (fun tx ->
      Engine.add tx p;
      Engine.write_int64 tx p 0 3L);
  let waits_dependent = (Engine.metrics e).Engine.lock_wait_events in
  Alcotest.(check bool) "dependent tx waited" true (waits_dependent > waits_before);
  (* An independent transaction (touching a pre-allocated, unrelated
     object) proceeds without waiting. *)
  let q =
    Engine.with_tx e (fun tx ->
        let q = Engine.alloc tx 1024 in
        Engine.write_int64 tx q 0 1L;
        q)
  in
  Engine.drain_backup e;
  Kamino_sim.Clock.advance (Engine.clock e) 100_000;
  let waits_before_ind = (Engine.metrics e).Engine.lock_wait_events in
  Engine.with_tx e (fun tx ->
      Engine.add tx q;
      Engine.write_int64 tx q 0 2L);
  let waits_independent = (Engine.metrics e).Engine.lock_wait_events in
  Alcotest.(check int) "independent tx did not wait" waits_before_ind waits_independent

let test_kamino_commit_faster_than_undo () =
  (* The headline claim, at microbenchmark scale: committing an update of a
     1 KB object costs less virtual time with Kamino-Tx than with undo
     logging, because no copy is made in the critical path. *)
  let run kind =
    let e = make kind in
    let p =
      Engine.with_tx e (fun tx ->
          let p = Engine.alloc tx 1024 in
          Engine.write_int64 tx p 0 1L;
          p)
    in
    Engine.drain_backup e;
    let t0 = Engine.now e in
    for i = 1 to 50 do
      Engine.with_tx e (fun tx ->
          Engine.add tx p;
          Engine.write_int64 tx p 0 (Int64.of_int i));
      (* space the transactions out so they are not dependent *)
      Clock.advance (Engine.clock e) 10_000
    done;
    Engine.now e - t0
  in
  let undo = run Engine.Undo_logging and kamino = run Engine.Kamino_simple in
  Alcotest.(check bool)
    (Printf.sprintf "kamino (%d ns) < undo (%d ns)" kamino undo)
    true (kamino < undo)

let test_kamino_dynamic_miss_then_hit () =
  let e = make (Engine.Kamino_dynamic { alpha = 0.5; policy = Backup.Lru_policy }) in
  let p =
    Engine.with_tx e (fun tx ->
        let p = Engine.alloc tx 1024 in
        Engine.write_int64 tx p 0 1L;
        p)
  in
  let m1 = Engine.metrics e in
  Engine.with_tx e (fun tx ->
      Engine.add tx p;
      Engine.write_int64 tx p 0 2L);
  let m2 = Engine.metrics e in
  Alcotest.(check bool) "first touches miss" true (m1.Engine.backup_misses > 0);
  Alcotest.(check bool) "re-update hits" true (m2.Engine.backup_hits > m1.Engine.backup_hits)

let test_kamino_dynamic_eviction () =
  let e = make (Engine.Kamino_dynamic { alpha = 0.02; policy = Backup.Lru_policy }) in
  (* Touch far more objects than the 2% backup can hold. *)
  let ptrs =
    List.init 64 (fun i ->
        Engine.with_tx e (fun tx ->
            let p = Engine.alloc tx 1024 in
            Engine.write_int64 tx p 0 (Int64.of_int i);
            p))
  in
  List.iteri
    (fun i p ->
      Engine.with_tx e (fun tx ->
          Engine.add tx p;
          Engine.write_int64 tx p 0 (Int64.of_int (i * 2))))
    ptrs;
  let m = Engine.metrics e in
  Alcotest.(check bool) "evictions happened" true (m.Engine.backup_evictions > 0);
  (* Values must still be correct after all the churn. *)
  List.iteri
    (fun i p ->
      Alcotest.(check int64) "value survives churn" (Int64.of_int (i * 2))
        (Engine.peek_int64 e p 0))
    ptrs

let test_metrics_storage () =
  let simple = make Engine.Kamino_simple in
  let dynamic = make (Engine.Kamino_dynamic { alpha = 0.1; policy = Backup.Lru_policy }) in
  let undo = make Engine.Undo_logging in
  let s k = (Engine.metrics k).Engine.storage_bytes in
  Alcotest.(check bool) "simple ~ 2x heap" true (s simple >= 2 * small_config.Engine.heap_bytes);
  Alcotest.(check bool) "dynamic < simple" true (s dynamic < s simple);
  Alcotest.(check bool) "undo < simple" true (s undo < s simple)

let test_intent_log_slot_backpressure () =
  (* Only 2 log slots: many committed-but-unapplied transactions must not
     wedge the engine — begin_tx drains the applier for a slot. *)
  let config = { small_config with Engine.log_slots = 2 } in
  let e = Engine.create ~config ~kind:Engine.Kamino_simple ~seed:1 () in
  let p =
    Engine.with_tx e (fun tx ->
        let p = Engine.alloc tx 64 in
        Engine.write_int64 tx p 0 0L;
        p)
  in
  for i = 1 to 50 do
    Engine.with_tx e (fun tx ->
        Engine.add tx p;
        Engine.write_int64 tx p 0 (Int64.of_int i))
  done;
  Alcotest.(check int64) "all commits landed" 50L (Engine.peek_int64 e p 0)

let test_oom_mid_tx_aborts_cleanly () =
  for_each_kind atomic_kinds (fun name e ->
      (* Exhaust the heap inside one transaction; with_tx must abort and the
         engine must stay usable. *)
      (try
         Engine.with_tx e (fun tx ->
             for _ = 1 to 1_000_000 do
               ignore (Engine.alloc tx 65536)
             done)
       with Out_of_memory | Failure _ -> ());
      Alcotest.(check bool) (name ^ ": heap valid after failed giant tx") true
        (Heap.validate (Engine.heap e) = Ok ());
      let p =
        Engine.with_tx e (fun tx ->
            let p = Engine.alloc tx 64 in
            Engine.write_int64 tx p 0 11L;
            p)
      in
      Alcotest.(check int64) (name ^ ": engine usable after OOM") 11L
        (Engine.peek_int64 e p 0))

let test_double_commit_rejected () =
  let e = make Engine.Kamino_simple in
  let tx = Engine.begin_tx e in
  let _ = Engine.alloc tx 64 in
  Engine.commit tx;
  Alcotest.(check bool) "second commit raises" true
    (try
       Engine.commit tx;
       false
     with Engine.Error Engine.Tx_finished -> true);
  Alcotest.(check bool) "abort after commit raises" true
    (try
       Engine.abort tx;
       false
     with Engine.Error Engine.Tx_finished -> true)

let test_read_only_tx_cheap () =
  (* Read-only transactions must not touch the logs at all. *)
  List.iter
    (fun kind ->
      let name = Engine.kind_name kind in
      let e = make kind in
      let p =
        Engine.with_tx e (fun tx ->
            let p = Engine.alloc tx 64 in
            Engine.write_int64 tx p 0 5L;
            p)
      in
      Engine.drain_backup e;
      let m0 = (Engine.metrics e).Engine.applier_tasks in
      let t0 = Engine.now e in
      Engine.with_tx e (fun tx -> ignore (Engine.read_int64 tx p 0));
      let dt = Engine.now e - t0 in
      Alcotest.(check int) (name ^ ": no applier work for reads") m0
        (Engine.metrics e).Engine.applier_tasks;
      Alcotest.(check bool)
        (Printf.sprintf "%s: read tx cheap (%d ns)" name dt)
        true (dt < 2000))
    [ Engine.Undo_logging; Engine.Kamino_simple ]

let test_verify_backup_detects_divergence () =
  (* Negative test: silently corrupt the backup and check the invariant
     checker notices. *)
  let e = make Engine.Kamino_simple in
  let p =
    Engine.with_tx e (fun tx ->
        let p = Engine.alloc tx 64 in
        Engine.write_int64 tx p 0 1L;
        p)
  in
  Engine.drain_backup e;
  Alcotest.(check bool) "clean backup verifies" true (Engine.verify_backup e = Ok ());
  (* bypass the engine: scribble on the main heap without any transaction *)
  Region.write_int64 (Engine.main_region e) p 0xDEADL;
  Alcotest.(check bool) "divergence detected" true (Engine.verify_backup e <> Ok ())

let test_clock_switching_multiclient () =
  let e = make Engine.Kamino_simple in
  let c1 = Engine.clock e in
  let p =
    Engine.with_tx e (fun tx ->
        let p = Engine.alloc tx 64 in
        Engine.write_int64 tx p 0 1L;
        p)
  in
  let t1 = Clock.now c1 in
  let c2 = Clock.create () in
  Engine.set_clock e c2;
  Engine.with_tx e (fun tx ->
      Engine.add tx p;
      Engine.write_int64 tx p 0 2L);
  Alcotest.(check int) "client 1 clock unchanged" t1 (Clock.now c1);
  Alcotest.(check bool) "client 2 charged" true (Clock.now c2 > 0)

(* --- plan-then-apply allocation --- *)

(* Sizes that pop one class's free list twice, then bump it and another
   class. *)
let many_sizes = [ 64; 100; 64; 64; 32 ]

(* An engine whose 64-byte free list holds two objects; returns it with a
   live object. *)
let seeded ?(seed = 42) kind =
  let e = Engine.create ~config:small_config ~kind ~seed () in
  let ps = Engine.with_tx e (fun tx -> List.map (Engine.alloc tx) [ 64; 128; 64 ]) in
  Engine.with_tx e (fun tx ->
      Engine.free tx (List.nth ps 0);
      Engine.free tx (List.nth ps 2));
  (e, List.nth ps 1)

let main_image e =
  let r = Engine.main_region e in
  Region.read_bytes r 0 (Region.size r)

let test_alloc_many_matches_sequential () =
  List.iter
    (fun kind ->
      let name = Engine.kind_name kind in
      let a, _ = seeded kind and b, _ = seeded kind in
      let pa = Engine.with_tx a (fun tx -> Engine.alloc_many tx many_sizes) in
      let pb = Engine.with_tx b (fun tx -> List.map (Engine.alloc tx) many_sizes) in
      Alcotest.(check (list int)) (name ^ ": same pointers") pb pa;
      Alcotest.(check bool) (name ^ ": same heap image") true
        (Bytes.equal (main_image a) (main_image b)))
    (all_kinds @ [ Engine.Intent_only ])

(* The heap's persistent state: the metadata block (magic, version,
   size, root) and every object header, the allocator's only persistent
   truth. *)
let allocator_state e =
  let h = Engine.heap e in
  let objs = ref [] in
  Heap.iter_objects h (fun p ~capacity ~allocated -> objs := (p, capacity, allocated) :: !objs);
  (Region.read_bytes (Engine.main_region e) 0 (Heap.data_start h), !objs)

(* A crash after every step of a transaction that pre-declares a free,
   allocates through [alloc_many], writes, then frees: recovery restores
   the allocator exactly as it was before the transaction. Unflushed words
   survive a crash at random, so each crash point runs under several
   engine seeds. *)
let test_alloc_many_crash_every_step () =
  let crash_after kind ~seed k =
    let e, victim = seeded ~seed kind in
    let before = allocator_state e in
    let tx = Engine.begin_tx e in
    let fresh = ref [] in
    let steps =
      [
        (fun () -> Engine.declare_free tx victim);
        (fun () -> fresh := Engine.alloc_many tx many_sizes);
        (fun () -> Engine.write_int tx (List.hd !fresh) 0 7);
        (fun () -> Engine.free tx victim);
      ]
    in
    List.iteri (fun i step -> if i < k then step ()) steps;
    Engine.crash e;
    Engine.recover e;
    let ctx = Printf.sprintf "%s/seed %d: crash after step %d" (Engine.kind_name kind) seed k in
    Alcotest.(check bool) (ctx ^ ": allocator restored") true (allocator_state e = before);
    Alcotest.(check bool) (ctx ^ ": heap valid") true (Heap.validate (Engine.heap e) = Ok ())
  in
  List.iter
    (fun kind ->
      for seed = 1 to 8 do
        for k = 0 to 4 do
          crash_after kind ~seed k
        done
      done)
    atomic_kinds

let fences e = (Engine.main_counters e).Region.fences

(* One barrier covers a whole [alloc_many], where one [alloc] per size
   pays a barrier each. *)
let test_alloc_many_one_barrier () =
  let fences_of allocate =
    let e, _ = seeded Engine.Kamino_simple in
    Engine.drain_backup e;
    Engine.with_tx e (fun tx ->
        let f0 = fences e in
        ignore (allocate tx);
        fences e - f0)
  in
  Alcotest.(check int) "alloc_many: one barrier" 1
    (fences_of (fun tx -> Engine.alloc_many tx many_sizes));
  Alcotest.(check int) "sequential allocs: one barrier each" (List.length many_sizes)
    (fences_of (fun tx -> List.map (Engine.alloc tx) many_sizes))

(* A size above [Heap.max_object_size], alone or inside an [alloc_many],
   is refused with [Invalid_argument] before anything is declared: no
   store (no intent, no snapshot), no lock. The transaction goes on to
   allocate a legal size and commit, and the heap validates. *)
let test_alloc_oversized_refused () =
  for_each_kind atomic_kinds (fun name e ->
      let refused tx what allocate =
        let stores () = (Engine.main_counters e).Region.stores in
        let locks () = Locks.acquisitions (Engine.locks e) in
        let s0 = stores () and l0 = locks () in
        (match allocate tx with
        | _ -> Alcotest.failf "%s: %s of an oversized object accepted" name what
        | exception Invalid_argument _ -> ());
        Alcotest.(check int) (Printf.sprintf "%s: %s stores nothing" name what) s0 (stores ());
        Alcotest.(check int) (Printf.sprintf "%s: %s takes no lock" name what) l0 (locks ())
      in
      let big = Heap.max_object_size + 1 in
      let p =
        Engine.with_tx e (fun tx ->
            refused tx "alloc" (fun tx -> [ Engine.alloc tx big ]);
            refused tx "alloc_many" (fun tx -> Engine.alloc_many tx [ 64; big ]);
            let p = Engine.alloc tx 64 in
            Engine.write_int tx p 0 9;
            p)
      in
      Alcotest.(check int) (name ^ ": legal allocation committed") 9 (Engine.peek_int e p 0);
      Alcotest.(check bool) (name ^ ": heap valid") true (Heap.validate (Engine.heap e) = Ok ()))

(* A [free] whose ranges were declared ahead of the transaction's barrier
   adds no barrier of its own; an undeclared one does. *)
let test_declared_free_no_barrier () =
  let free_fences ~declared =
    let e, victim = seeded Engine.Kamino_simple in
    Engine.drain_backup e;
    Engine.with_tx e (fun tx ->
        if declared then Engine.declare_free tx victim;
        let p = List.hd (Engine.alloc_many tx [ 64 ]) in
        Engine.write_int tx p 0 7;
        let f0 = fences e in
        Engine.free tx victim;
        fences e - f0)
  in
  Alcotest.(check int) "declared free: no barrier" 0 (free_fences ~declared:true);
  Alcotest.(check int) "undeclared free: one barrier" 1 (free_fences ~declared:false)

(* --- reserve, then publish --- *)

(* What a refused publish must leave alone: the client's clock, every NVM
   counter of the stack, the lock table and the main heap's image. *)
let untouched e =
  ( Engine.now e,
    Engine.main_counters e,
    Locks.acquisitions (Engine.locks e),
    Region.digest (Engine.main_region e) )

let refuses_stale ctx e tx r =
  let before = untouched e in
  (match Engine.publish tx r with
  | _ -> Alcotest.failf "%s: stale reservation published" ctx
  | exception Engine.Error (Engine.Stale_reservation _) -> ());
  Alcotest.(check bool) (ctx ^ ": charges, stores and locks nothing") true (untouched e = before)

(* A reservation stores nothing: a transaction that reserves and then
   aborts, or crashes and recovers, leaves the heap image and the backup
   exactly as a twin that never reserved leaves them, and its next
   allocations land where the twin's do. Its reservation is then
   stale. *)
let test_reservation_is_volatile () =
  let ends =
    [
      ("abort", fun _ tx -> Engine.abort tx);
      ( "crash",
        fun e _ ->
          Engine.crash e;
          Engine.recover e );
    ]
  in
  List.iter
    (fun kind ->
      List.iter
        (fun (how, finish) ->
          let ctx = Printf.sprintf "%s, reserve then %s" (Engine.kind_name kind) how in
          let run ~reserve =
            let e, live = seeded kind in
            let tx = Engine.begin_tx e in
            Engine.add tx live;
            Engine.write_int tx live 0 99;
            let r = if reserve then Some (Engine.reserve tx many_sizes) else None in
            finish e tx;
            (e, tx, r)
          in
          let a, tx, r = run ~reserve:true and b, _, _ = run ~reserve:false in
          Alcotest.(check string) (ctx ^ ": region digest")
            (Region.digest (Engine.main_region b))
            (Region.digest (Engine.main_region a));
          Alcotest.(check bool) (ctx ^ ": heap valid") true (Heap.validate (Engine.heap a) = Ok ());
          Alcotest.(check bool) (ctx ^ ": backup verifies like the twin's") true
            (Engine.verify_backup a = Ok () && Engine.verify_backup b = Ok ());
          refuses_stale ctx a tx (Option.get r);
          let next e = Engine.with_tx e (fun tx -> Engine.alloc_many tx many_sizes) in
          Alcotest.(check (list int)) (ctx ^ ": the next allocations land alike") (next b) (next a))
        ends)
    atomic_kinds

(* A reservation is stale once published, in another transaction, and
   after its own finished: it may have been given back, and publishing it
   could hand an object out twice. A claim survives its transaction's
   later allocations and frees: it still publishes, an object of its own,
   and the transaction commits. *)
let test_stale_reservation_refused () =
  List.iter
    (fun kind ->
      let name = Engine.kind_name kind in
      let e, victim = seeded kind in
      let p =
        Engine.with_tx e (fun tx ->
            let r = Engine.reserve tx [ 64 ] in
            let q = List.hd (Engine.alloc_many tx [ 64 ]) in
            let p = List.hd (Engine.publish tx r) in
            Alcotest.(check bool) (name ^ ": after alloc_many, another object") true (p <> q);
            let r = Engine.reserve tx [ 64 ] in
            Engine.free tx victim;
            let p' = List.hd (Engine.publish tx r) in
            Alcotest.(check bool) (name ^ ": after free, another object") true
              (p' <> p && p' <> q && p' <> victim);
            refuses_stale (name ^ ": published twice") e tx r;
            Engine.write_int tx p 0 5;
            p)
      in
      Alcotest.(check int) (name ^ ": the surviving reservation committed") 5
        (Engine.peek_int e p 0);
      let tx1 = Engine.begin_tx e in
      let r = Engine.reserve tx1 [ 64 ] in
      Engine.commit tx1;
      refuses_stale (name ^ ": after commit") e tx1 r;
      Engine.with_tx e (fun tx2 -> refuses_stale (name ^ ": in another transaction") e tx2 r);
      Alcotest.(check bool) (name ^ ": heap valid") true (Heap.validate (Engine.heap e) = Ok ()))
    (all_kinds @ [ Engine.Intent_only ])

(* A commit that leaves a claim of fresh space unpublished under a
   published one publishes and frees it, so no zero header sits inside
   the object area: the heap validates, the claim is the next object its
   class hands out, and a crash and recovery rebuild the same state. An
   abort of a kind that cannot roll back keeps what it published the
   same way. *)
(* A free serves its own transaction's next allocation of its class, as
   the free lists in NVM did: the transaction declared and locks the
   extent already, so the reuse needs no barrier beyond the free's. A
   roll-back restores the header to allocated, and the extent is not
   handed out again. *)
let test_free_serves_own_tx () =
  for_each_kind all_kinds (fun name e ->
      let p = Engine.with_tx e (fun tx -> Engine.alloc tx 128) in
      let q, extra =
        Engine.with_tx e (fun tx ->
            Engine.free tx p;
            let f0 = fences e in
            let q = Engine.alloc tx 128 in
            (q, fences e - f0))
      in
      Alcotest.(check int) (name ^ ": the freed extent serves the next allocation") p q;
      Alcotest.(check int) (name ^ ": with no barrier of its own") 0 extra;
      Alcotest.(check bool) (name ^ ": heap valid") true (Heap.validate (Engine.heap e) = Ok ());
      if Engine.kind e <> Engine.No_logging then begin
        Engine.with_tx e (fun tx ->
            Engine.add tx q;
            Engine.write_int64 tx q 0 7L);
        (try
           Engine.with_tx e (fun tx ->
               Engine.free tx q;
               let r = Engine.alloc tx 128 in
               Engine.write_int64 tx r 0 9L;
               failwith "abort")
         with Failure _ -> ());
        Alcotest.(check bool) (name ^ ": rolled back, still allocated") true
          (Heap.is_allocated (Engine.heap e) q);
        Alcotest.(check int64) (name ^ ": with its contents") 7L
          (Engine.with_tx e (fun tx -> Engine.read_int64 tx q 0));
        Alcotest.(check bool) (name ^ ": heap valid after the abort") true
          (Heap.validate (Engine.heap e) = Ok ());
        Alcotest.(check bool) (name ^ ": not handed out again") true
          (Engine.with_tx e (fun tx -> Engine.alloc tx 128) <> q)
      end)

let test_stranded_claim () =
  List.iter
    (fun kind ->
      let name = Engine.kind_name kind in
      let e = make kind in
      let claimed = ref Heap.null in
      let strand tx =
        ignore (Engine.reserve tx [ 300 ]);
        let p = List.hd (Engine.alloc_many tx [ 100 ]) in
        (* The claim's extent (a 16 B header, a 320 B class) lies just
           below [p]'s. *)
        claimed := p - (16 + 320);
        p
      in
      let p = Engine.with_tx e strand in
      Alcotest.(check bool) (name ^ ": heap valid") true (Heap.validate (Engine.heap e) = Ok ());
      Alcotest.(check bool) (name ^ ": the published object stays") true
        (Heap.is_allocated (Engine.heap e) p);
      Engine.crash e;
      Engine.recover e;
      Alcotest.(check bool) (name ^ ": valid after recovery") true
        (Heap.validate (Engine.heap e) = Ok ());
      Alcotest.(check (list int)) (name ^ ": the stranded claim is free for its class")
        [ !claimed ]
        (Engine.with_tx e (fun tx -> Engine.alloc_many tx [ 300 ])))
    all_kinds

(* A kind that cannot roll back keeps what a failed transaction
   published, as a commit does: its abort publishes and frees a stranded
   claim too, so no zero header splits the object area, and a later
   commit's objects survive a crash. *)
let test_stranded_claim_abort () =
  List.iter
    (fun kind ->
      let name = Engine.kind_name kind in
      let e = make kind in
      let published = ref Heap.null in
      (try
         Engine.with_tx e (fun tx ->
             ignore (Engine.reserve tx [ 300 ]);
             published := List.hd (Engine.alloc_many tx [ 100 ]);
             failwith "abort")
       with Failure _ -> ());
      Alcotest.(check bool) (name ^ ": heap valid") true (Heap.validate (Engine.heap e) = Ok ());
      Alcotest.(check bool) (name ^ ": the published object stays") true
        (Heap.is_allocated (Engine.heap e) !published);
      if kind = Engine.No_logging then begin
        let q = Engine.with_tx e (fun tx -> Engine.alloc tx 64) in
        Engine.crash e;
        Engine.recover e;
        Alcotest.(check bool) (name ^ ": valid after recovery") true
          (Heap.validate (Engine.heap e) = Ok ());
        Alcotest.(check bool) (name ^ ": a later commit's object survives") true
          (Heap.is_allocated (Engine.heap e) q)
      end)
    [ Engine.No_logging; Engine.Intent_only ]

(* The allocator's volatile state is a function of the heap image: an
   engine that crashed and rebuilt it from the headers allocates exactly
   where a twin that never crashed does, whatever order the frees came
   in. Chain replicas rely on it: a rebooted replica must keep its
   peers' layout, because [resolve_from_peer] copies their bytes over
   its own. *)
let test_rebuilt_allocates_alike () =
  List.iter
    (fun kind ->
      let name = Engine.kind_name kind in
      let run ~crash =
        let e = make kind in
        let ps = Engine.with_tx e (fun tx -> Engine.alloc_many tx [ 64; 64; 100; 64; 64; 100 ]) in
        List.iter (fun i -> Engine.with_tx e (fun tx -> Engine.free tx (List.nth ps i))) [ 3; 0; 5; 4; 2 ];
        if crash then begin
          Engine.drain_backup e;
          Engine.crash e;
          Engine.recover e
        end;
        Engine.with_tx e (fun tx -> Engine.alloc_many tx [ 64; 100; 64; 64; 100; 64 ])
      in
      Alcotest.(check (list int)) (name ^ ": the same objects") (run ~crash:false) (run ~crash:true))
    all_kinds

(* The allocator's search runs under its volatile mutex, and no
   transaction lock covers allocator state. A second client that
   reserves while the first still holds its locks (Kamino-Tx releases
   them only once the applier has propagated) waits exactly for the
   first's search; its publication declares only its fresh extent and
   waits on nothing. A transaction that hands the
   allocator state a change at its end (it gave a reservation back, or it
   freed) holds the mutex until then. *)
let test_search_under_allocator_mutex () =
  List.iter
    (fun kind ->
      let name = Engine.kind_name kind in
      let e = make kind in
      let start = Engine.now e + 1_000_000 in
      let client () =
        let c = Clock.create () in
        ignore (Clock.advance_to c start);
        Engine.set_clock e c
      in
      client ();
      let tx = Engine.begin_tx e in
      let a0 = Engine.now e in
      let r = Engine.reserve tx [ 64 ] in
      let search = Engine.now e - a0 in
      let a1 = Engine.now e in
      let pa = List.hd (Engine.publish tx r) in
      Engine.write_int tx pa 0 1;
      Engine.commit tx;
      client ();
      let tx = Engine.begin_tx e in
      Alcotest.(check int) (name ^ ": the second starts with the first") a0 (Engine.now e);
      let r = Engine.reserve tx [ 64 ] in
      Alcotest.(check int) (name ^ ": its search follows the first's") (a1 + search) (Engine.now e);
      let w0 = Locks.wait_events (Engine.locks e) in
      let pb = List.hd (Engine.publish tx r) in
      Alcotest.(check int) (name ^ ": its publication waits on nothing") w0
        (Locks.wait_events (Engine.locks e));
      Alcotest.(check bool) (name ^ ": another object") true (pa <> pb);
      Engine.commit tx;
      (* [ends] finishes the transaction and returns when it handed its
         change over: an abort at its start, a commit at its end. *)
      List.iter
        (fun (how, ends) ->
          let ctx = Printf.sprintf "%s, a transaction that %s" name how in
          let handed = ends (Engine.begin_tx e) in
          client ();
          let tx = Engine.begin_tx e in
          ignore (Engine.reserve tx [ 64 ]);
          Alcotest.(check bool) (ctx ^ ": the next search starts after it") true
            (Engine.now e >= handed + int_of_float small_config.Engine.cost.alloc_ns);
          Engine.abort tx)
        [
          ( "reserved and aborted",
            fun tx ->
              ignore (Engine.reserve tx [ 64 ]);
              let at = Engine.now e in
              Engine.abort tx;
              at );
          ( "committed an unpublished reservation",
            fun tx ->
              ignore (Engine.reserve tx [ 64 ]);
              Engine.commit tx;
              Engine.now e );
          ( "freed",
            fun tx ->
              Engine.free tx pb;
              Engine.commit tx;
              Engine.now e );
        ];
      Alcotest.(check bool) (name ^ ": heap valid") true (Heap.validate (Engine.heap e) = Ok ()))
    [ Engine.Kamino_simple; Engine.Undo_logging ]

(* An exception inside an [Intent_only] transaction: the caller's
   exception comes out, the handle's locks go, and the engine refuses to
   begin until a peer resolves the record it left running, across a
   crash and recovery too. *)
let test_intent_only_exception_needs_peer () =
  let replica () = Engine.create ~config:small_config ~kind:Engine.Intent_only ~seed:42 () in
  let e = replica () and peer = replica () in
  let setup e =
    Engine.with_tx e (fun tx ->
        let p = Engine.alloc tx 64 in
        Engine.write_int64 tx p 0 1L;
        p)
  in
  let p = setup e in
  ignore (setup peer);
  (* A transaction that never declared claims no slot and blocks nothing. *)
  (match Engine.with_tx e (fun tx -> ignore (Engine.read_int64 tx p 0); raise Exit) with
  | () -> Alcotest.fail "read-only: no exception"
  | exception Exit -> ());
  (match
     Engine.with_tx e (fun tx ->
         Engine.add tx p;
         Engine.write_int64 tx p 0 2L;
         raise Exit)
   with
  | () -> Alcotest.fail "no exception"
  | exception Exit -> ()
  | exception x -> Alcotest.failf "%s replaced Exit" (Printexc.to_string x));
  let key = (Heap.extent (Engine.heap e) p).Heap.off in
  Alcotest.(check bool) "locks released at abort" false
    (Locks.held_by_active_tx (Engine.locks e) key);
  let refused ctx =
    match Engine.begin_tx e with
    | _ -> Alcotest.failf "%s: begin_tx ran over an unresolved record" ctx
    | exception Engine.Error (Engine.Unresolved_record _) -> ()
  in
  refused "after the abort";
  (* The record is durable: a crash does not lift the refusal. *)
  Engine.crash e;
  Engine.recover e;
  refused "after crash and recover";
  Engine.resolve_from_peer e ~peer:(Engine.main_region peer);
  Alcotest.(check int64) "peer's value restored" 1L (Engine.peek_int64 e p 0);
  Engine.with_tx e (fun tx ->
      Engine.add tx p;
      Engine.write_int64 tx p 0 3L);
  Alcotest.(check int64) "transactions run again" 3L (Engine.peek_int64 e p 0);
  Alcotest.(check int) "every slot free" small_config.Engine.log_slots
    (Kamino_core.Intent_log.free_slots (Option.get (Engine.intent_log e)))

(* --- the count vector --- *)

(* A clock's advance is linear in what was charged: the regions' counters
   dotted with the cost model, plus [lock_ns] per lock acquisition, plus
   the carry the regions held at the start less the carry at the end. The
   identity holds to the nanosecond when nothing waits and the applier
   does not run inside the span, so each transaction below starts with
   the applier drained and the client's clock past the applier's. *)
let dot (cm : Kamino_nvm.Cost_model.t) (c : Region.counters) =
  let f = float_of_int in
  let open Kamino_nvm.Cost_model in
  (cm.store_overhead_ns *. f c.Region.stores)
  +. (cm.store_ns_per_byte *. f c.Region.bytes_stored)
  +. (cm.load_overhead_ns *. f c.Region.loads)
  +. (cm.load_ns_per_byte *. f c.Region.bytes_loaded)
  +. (cm.flush_line_ns *. f c.Region.lines_flushed)
  +. (cm.fence_ns *. f c.Region.fences)
  +. (cm.copy_overhead_ns *. f c.Region.copies)
  +. (cm.copy_ns_per_byte *. f c.Region.bytes_copied)
  +. (cm.alloc_ns *. f c.Region.allocs)
  +. (cm.free_ns *. f c.Region.frees)
  +. (cm.index_ns *. f c.Region.index_ops)
  +. (cm.log_entry_ns *. f c.Region.log_entries)
  +. (cm.clflush_ns *. f c.Region.clflush_lines)
  +. (cm.tx_overhead_ns *. f c.Region.tx_begins)

let counters_delta (a : Region.counters) (b : Region.counters) =
  {
    Region.stores = b.stores - a.stores;
    bytes_stored = b.bytes_stored - a.bytes_stored;
    loads = b.loads - a.loads;
    bytes_loaded = b.bytes_loaded - a.bytes_loaded;
    lines_flushed = b.lines_flushed - a.lines_flushed;
    fences = b.fences - a.fences;
    bytes_copied = b.bytes_copied - a.bytes_copied;
    copies = b.copies - a.copies;
    allocs = b.allocs - a.allocs;
    frees = b.frees - a.frees;
    index_ops = b.index_ops - a.index_ops;
    log_entries = b.log_entries - a.log_entries;
    clflush_lines = b.clflush_lines - a.clflush_lines;
    tx_begins = b.tx_begins - a.tx_begins;
    crashes = b.crashes - a.crashes;
  }

let test_clock_is_counts_dot_cost () =
  List.iter
    (fun kind ->
      let name = Engine.kind_name kind in
      let e = make kind in
      let cm = (Engine.config e).Engine.cost in
      let lock_ns = float_of_int (int_of_float cm.Kamino_nvm.Cost_model.lock_ns) in
      let totals = Region.zero_counters () in
      let measured ctx f =
        Engine.drain_backup e;
        Option.iter
          (fun a -> ignore (Clock.advance_to (Engine.clock e) (Applier.virtual_now a)))
          (Engine.applier e);
        let c0 = Engine.main_counters e and k0 = Engine.carry_ns e in
        let l0 = Locks.acquisitions (Engine.locks e) and w0 = Locks.waits (Engine.locks e) in
        let t0 = Engine.now e in
        let r = f () in
        let d = counters_delta c0 (Engine.main_counters e) in
        let locks = Locks.acquisitions (Engine.locks e) - l0 in
        Alcotest.(check int) (Printf.sprintf "%s, %s: no lock wait" name ctx) 0
          (Locks.waits (Engine.locks e) - w0);
        let predicted = dot cm d +. (lock_ns *. float_of_int locks) +. k0 -. Engine.carry_ns e in
        let dt = Engine.now e - t0 in
        if Float.abs (predicted -. float_of_int dt) > 1e-6 then
          Alcotest.failf "%s, %s: clock advanced %d ns, counts predict %.9f" name ctx dt
            predicted;
        Region.add_counters totals d;
        r
      in
      let ps =
        measured "allocating tx" (fun () ->
            Engine.with_tx e (fun tx ->
                List.map
                  (fun size ->
                    let p = Engine.alloc tx size in
                    Engine.write_string tx p 0 (String.make size 'a');
                    p)
                  [ 48; 64; 200; 1000 ]))
      in
      let p0, p1, p2, p3 =
        match ps with [ a; b; c; d ] -> (a, b, c, d) | _ -> assert false
      in
      measured "whole and field intents" (fun () ->
          Engine.with_tx e (fun tx ->
              Engine.add tx p0;
              Engine.write_int tx p0 8 7;
              Engine.add_field tx p2 16 24;
              Engine.write_string tx p2 16 (String.make 24 'b');
              Engine.read_lock tx p1;
              ignore (Engine.read_int tx p1 0)));
      measured "many fields" (fun () ->
          Engine.with_tx e (fun tx ->
              for i = 0 to 9 do
                Engine.add_field tx p3 (i * 96) 8;
                Engine.write_int tx p3 (i * 96) i
              done));
      measured "free" (fun () ->
          Engine.with_tx e (fun tx ->
              Engine.declare_free tx p1;
              Engine.free tx p1));
      measured "read-only tx" (fun () ->
          Engine.with_tx e (fun tx -> ignore (Engine.read_bytes tx p3 0 100)));
      if List.mem kind atomic_kinds then
        measured "abort" (fun () ->
            let tx = Engine.begin_tx e in
            Engine.add tx p0;
            Engine.write_int tx p0 0 99;
            ignore (Engine.alloc tx 96);
            Engine.abort tx);
      (* Every term the kind pays showed up at least once. *)
      Alcotest.(check bool) (name ^ ": allocs, frees and tx begins counted") true
        (totals.Region.allocs >= 4 && totals.Region.frees >= 1
        && totals.Region.tx_begins = if List.mem kind atomic_kinds then 6 else 5))
    (all_kinds @ [ Engine.Intent_only ])

let () =
  Alcotest.run "engine"
    [
      ( "commit/abort",
        [
          Alcotest.test_case "commit visible" `Quick test_commit_visible;
          Alcotest.test_case "read own writes" `Quick test_read_own_writes;
          Alcotest.test_case "abort restores" `Quick test_abort_restores;
          Alcotest.test_case "abort undoes alloc" `Quick test_abort_undoes_alloc;
          Alcotest.test_case "abort undoes free" `Quick test_abort_undoes_free;
          Alcotest.test_case "free then realloc" `Quick test_free_then_realloc;
          Alcotest.test_case "no-logging abort raises" `Quick test_no_logging_abort_raises;
          Alcotest.test_case "with_tx keeps the exception of a kind without abort" `Quick
            test_with_tx_keeps_exception;
          Alcotest.test_case "with_tx aborts on exception" `Quick
            test_with_tx_aborts_on_exception;
          Alcotest.test_case "add_field semantics" `Quick test_add_field_semantics;
          Alcotest.test_case "add_field crash recovery" `Quick test_add_field_crash_recovery;
          Alcotest.test_case "add_field covered by whole object" `Quick
            test_add_field_whole_object_covers;
          Alcotest.test_case "field write survives an overlapping declare" `Quick
            test_field_write_survives_overlap;
          Alcotest.test_case "field write survives an overlapping declare, every fence" `Quick
            test_field_write_survives_overlap_sweep;
          Alcotest.test_case "set_root" `Quick test_set_root;
        ] );
      ( "cow",
        [
          Alcotest.test_case "add+write+free+commit" `Quick test_cow_add_write_free_commit;
          Alcotest.test_case "add+write+free+abort" `Quick test_cow_add_write_free_abort;
        ] );
      ( "discipline",
        [
          Alcotest.test_case "write without intent rejected" `Quick
            test_write_without_intent_rejected;
          Alcotest.test_case "serial transactions enforced" `Quick test_serial_tx_enforced;
        ] );
      ( "accessors",
        [
          Alcotest.test_case "typed accessors on a field intent, every kind" `Quick
            test_typed_accessors;
          Alcotest.test_case "a write straddling two field intents, every kind" `Quick
            test_straddling_write;
        ] );
      ( "kamino",
        [
          Alcotest.test_case "sealed commit only where hashing beats a fence" `Quick
            test_sealed_commit_rule;
          Alcotest.test_case "durable_outcome reads the crashed image" `Quick
            test_durable_outcome;
          Alcotest.test_case "backup catches up" `Quick test_kamino_backup_catches_up;
          Alcotest.test_case "abort after committed predecessor" `Quick
            test_kamino_abort_after_committed_predecessor;
          Alcotest.test_case "dependent tx waits" `Quick test_kamino_dependent_tx_waits;
          Alcotest.test_case "commit faster than undo" `Quick
            test_kamino_commit_faster_than_undo;
          Alcotest.test_case "dynamic miss then hit" `Quick test_kamino_dynamic_miss_then_hit;
          Alcotest.test_case "dynamic eviction" `Quick test_kamino_dynamic_eviction;
          Alcotest.test_case "storage accounting" `Quick test_metrics_storage;
          Alcotest.test_case "verify_backup detects divergence" `Quick
            test_verify_backup_detects_divergence;
          Alcotest.test_case "slot backpressure" `Quick test_intent_log_slot_backpressure;
          Alcotest.test_case "OOM mid-tx aborts cleanly" `Quick test_oom_mid_tx_aborts_cleanly;
          Alcotest.test_case "double commit rejected" `Quick test_double_commit_rejected;
          Alcotest.test_case "read-only txs are cheap" `Quick test_read_only_tx_cheap;
          Alcotest.test_case "multi-client clocks" `Quick test_clock_switching_multiclient;
          Alcotest.test_case "intent-only exception waits for a peer" `Quick
            test_intent_only_exception_needs_peer;
        ] );
      ( "plan-then-apply",
        [
          Alcotest.test_case "alloc_many = sequential alloc" `Quick
            test_alloc_many_matches_sequential;
          Alcotest.test_case "crash at every step of alloc_many + declare_free" `Quick
            test_alloc_many_crash_every_step;
          Alcotest.test_case "alloc_many fences once" `Quick test_alloc_many_one_barrier;
          Alcotest.test_case "oversized allocations refused" `Quick test_alloc_oversized_refused;
          Alcotest.test_case "declared free needs no barrier" `Quick
            test_declared_free_no_barrier;
          Alcotest.test_case "a reservation is volatile" `Quick test_reservation_is_volatile;
          Alcotest.test_case "a stale reservation is refused" `Quick
            test_stale_reservation_refused;
          Alcotest.test_case "a free serves its own transaction's next allocation" `Quick
            test_free_serves_own_tx;
          Alcotest.test_case "a commit publishes and frees a stranded claim" `Quick
            test_stranded_claim;
          Alcotest.test_case "an abort that cannot roll back publishes a stranded claim"
            `Quick test_stranded_claim_abort;
          Alcotest.test_case "a rebuilt allocator allocates as its twin" `Quick
            test_rebuilt_allocates_alike;
          Alcotest.test_case "the search runs under the allocator's mutex" `Quick
            test_search_under_allocator_mutex;
        ] );
      ( "counts",
        [
          Alcotest.test_case "clock = counts . cost, every kind" `Quick
            test_clock_is_counts_dot_cost;
        ] );
    ]
