(* Tests for the key-value store: CRUD semantics under every engine kind,
   crash recovery, and behaviour under the YCSB operation shapes. *)

module Engine = Kamino_core.Engine
module Backup = Kamino_core.Backup
module Kv = Kamino_kv.Kv
module Rng = Kamino_sim.Rng
module Region = Kamino_nvm.Region
module Clock = Kamino_sim.Clock
module Locks = Kamino_core.Locks

let config =
  {
    Engine.default_config with
    Engine.heap_bytes = 8 lsl 20;
    log_slots = 64;
    data_log_bytes = 2 lsl 20;
  }

let kinds =
  [
    Engine.No_logging;
    Engine.Undo_logging;
    Engine.Cow;
    Engine.Kamino_simple;
    Engine.Kamino_dynamic { alpha = 0.4; policy = Backup.Lru_policy };
  ]

let atomic_kinds = List.tl kinds

let make ?(kind = Engine.Kamino_simple) () =
  let e = Engine.create ~config ~kind ~seed:5 () in
  Kv.create e ~value_size:256 ~node_size:512

let for_each kinds f = List.iter (fun k -> f (Engine.kind_name k) (make ~kind:k ())) kinds

let test_put_get () =
  for_each kinds (fun name kv ->
      Kv.put kv 1 "one";
      Kv.put kv 2 "two";
      Alcotest.(check (option string)) (name ^ ": get 1") (Some "one") (Kv.get kv 1);
      Alcotest.(check (option string)) (name ^ ": get 2") (Some "two") (Kv.get kv 2);
      Alcotest.(check (option string)) (name ^ ": absent") None (Kv.get kv 3);
      Alcotest.(check int) (name ^ ": size") 2 (Kv.size kv))

let test_overwrite () =
  for_each kinds (fun name kv ->
      Kv.put kv 7 "first";
      Kv.put kv 7 "second version";
      Alcotest.(check (option string)) (name ^ ": updated") (Some "second version")
        (Kv.get kv 7);
      Alcotest.(check int) (name ^ ": size stays 1") 1 (Kv.size kv))

let test_delete () =
  for_each kinds (fun name kv ->
      Kv.put kv 1 "x";
      Alcotest.(check bool) (name ^ ": delete present") true (Kv.delete kv 1);
      Alcotest.(check bool) (name ^ ": delete absent") false (Kv.delete kv 1);
      Alcotest.(check (option string)) (name ^ ": gone") None (Kv.get kv 1);
      Alcotest.(check int) (name ^ ": size 0") 0 (Kv.size kv);
      (* the freed value slot is reusable *)
      Kv.put kv 2 "y";
      Alcotest.(check (option string)) (name ^ ": reuse ok") (Some "y") (Kv.get kv 2))

let test_rmw () =
  for_each kinds (fun name kv ->
      Kv.put kv 5 "counter:0";
      Alcotest.(check bool) (name ^ ": rmw present") true
        (Kv.read_modify_write kv 5 (fun s -> s ^ "+1"));
      Alcotest.(check (option string)) (name ^ ": rmw applied") (Some "counter:0+1")
        (Kv.get kv 5);
      Alcotest.(check bool) (name ^ ": rmw absent") false
        (Kv.read_modify_write kv 99 Fun.id);
      (* [rmw_tx] inserts [f ""] at an absent key. *)
      Engine.with_tx (Kv.engine kv) (fun tx -> Kv.rmw_tx tx kv 99 (fun s -> s ^ "fresh"));
      Engine.with_tx (Kv.engine kv) (fun tx -> Kv.rmw_tx tx kv 5 (fun s -> s ^ "+2"));
      Alcotest.(check (option string)) (name ^ ": rmw_tx inserted") (Some "fresh")
        (Kv.get kv 99);
      Alcotest.(check (option string)) (name ^ ": rmw_tx updated") (Some "counter:0+1+2")
        (Kv.get kv 5);
      Alcotest.(check int) (name ^ ": size") 2 (Kv.size kv);
      Alcotest.(check bool) (name ^ ": valid") true (Kv.validate kv = Ok ()))

let test_value_size_enforced () =
  let kv = make () in
  Alcotest.(check bool) "oversized rejected" true
    (try
       Kv.put kv 1 (String.make 10_000 'x');
       false
     with Invalid_argument _ -> true)

let test_iter () =
  let kv = make () in
  List.iter (fun (k, v) -> Kv.put kv k v) [ (3, "c"); (1, "a"); (2, "b") ];
  let acc = ref [] in
  Kv.iter kv (fun k v -> acc := (k, v) :: !acc);
  Alcotest.(check (list (pair int string))) "ordered" [ (1, "a"); (2, "b"); (3, "c") ]
    (List.rev !acc)

let test_range () =
  let kv = make () in
  for k = 0 to 49 do
    Kv.put kv (k * 2) (Printf.sprintf "v%d" (k * 2))
  done;
  let scan = Kv.range kv ~lo:10 ~hi:20 in
  Alcotest.(check (list (pair int string))) "inclusive scan"
    [ (10, "v10"); (12, "v12"); (14, "v14"); (16, "v16"); (18, "v18"); (20, "v20") ]
    scan;
  Alcotest.(check (list (pair int string))) "empty scan" [] (Kv.range kv ~lo:200 ~hi:300)

let test_many_keys () =
  for_each atomic_kinds (fun name kv ->
      for k = 0 to 499 do
        Kv.put kv k (Printf.sprintf "value-%d" k)
      done;
      Alcotest.(check int) (name ^ ": size") 500 (Kv.size kv);
      for k = 0 to 499 do
        match Kv.get kv k with
        | Some v when v = Printf.sprintf "value-%d" k -> ()
        | other ->
            Alcotest.failf "%s: key %d wrong: %s" name k
              (Option.value other ~default:"<none>")
      done;
      Alcotest.(check bool) (name ^ ": valid") true (Kv.validate kv = Ok ()))

(* Plan-then-apply: a fresh-key put declares the index leaf and descriptor
   before allocating its value, and a delete declares its free up front, so
   on kamino-simple with the applier drained each costs three fences: the
   intent-log barrier, the data persist and the commit mark. *)
let test_fence_budget () =
  let kv = make () in
  let e = Kv.engine kv in
  (* The intent barrier, and one fence for the write set and its sealed
     commit mark. *)
  let two what f =
    Engine.drain_backup e;
    let before = (Engine.main_counters e).Region.fences in
    let r = f () in
    Alcotest.(check int) (what ^ ": fences") 2 ((Engine.main_counters e).Region.fences - before);
    r
  in
  two "put (fresh key)" (fun () -> Kv.put kv 1 "one");
  two "put (second fresh key)" (fun () -> Kv.put kv 2 "two");
  two "put (overwrite)" (fun () -> Kv.put kv 1 "uno");
  Alcotest.(check bool) "delete present" true (two "delete" (fun () -> Kv.delete kv 2));
  Alcotest.(check (option string)) "overwritten" (Some "uno") (Kv.get kv 1);
  Alcotest.(check (option string)) "deleted" None (Kv.get kv 2);
  Alcotest.(check bool) "valid" true (Kv.validate kv = Ok ())

(* An update descends once, into the handle's cursor, and reads what a
   committed lookup reads: its loads are [Btree.find]'s ([Kv.value_ptr])
   plus the value write's. The same transaction with the lookup done
   before it isolates the write's share. *)
let test_update_loads () =
  let kv = make () in
  let e = Kv.engine kv in
  for k = 0 to 199 do
    Kv.put kv k "v"
  done;
  let loads f =
    Engine.drain_backup e;
    let before = (Engine.main_counters e).Region.loads in
    let r = f () in
    ((Engine.main_counters e).Region.loads - before, r)
  in
  let find, vptr = loads (fun () -> Kv.value_ptr kv 77) in
  let vptr = Option.get vptr in
  let write, () =
    loads (fun () ->
        Engine.with_tx e (fun tx ->
            Engine.add tx vptr;
            Engine.write_int tx vptr 0 (String.length "w");
            Engine.write_string tx vptr 8 "w"))
  in
  let put, () = loads (fun () -> Kv.put kv 77 "w") in
  Alcotest.(check bool) "the lookup charges loads" true (find > 0);
  Alcotest.(check int) "put = find + value write" (find + write) put;
  Alcotest.(check (option string)) "updated" (Some "w") (Kv.get kv 77)

let counts e =
  let c = Engine.main_counters e in
  (c.Region.loads, c.Region.bytes_loaded)

let measure e f =
  Engine.drain_backup e;
  let l0, b0 = counts e in
  let r = f () in
  let l1, b1 = counts e in
  (l1 - l0, b1 - b0, r)

(* A get costs its lookup's and read lock's loads plus one load of the
   value record: the length word and bytes together, [8 + len] bytes —
   the bytes the two-load form loads. *)
let test_get_loads () =
  let kv = make () in
  let e = Kv.engine kv in
  for k = 0 to 199 do
    Kv.put kv k (String.make (k mod 50) 'v')
  done;
  List.iter
    (fun k ->
      let find_loads, find_bytes, vptr = measure e (fun () -> Kv.value_ptr kv k) in
      let lock_loads, lock_bytes, () =
        measure e (fun () ->
            Engine.with_tx e (fun tx -> Engine.read_lock tx (Option.get vptr)))
      in
      let loads, bytes, v = measure e (fun () -> Kv.get kv k) in
      let len = k mod 50 in
      Alcotest.(check (option string)) "value" (Some (String.make len 'v')) v;
      Alcotest.(check int)
        (Printf.sprintf "get %d: loads" k)
        (find_loads + lock_loads + 1)
        loads;
      Alcotest.(check int)
        (Printf.sprintf "get %d: bytes" k)
        (find_bytes + lock_bytes + 8 + len)
        bytes)
    [ 0; 7; 49; 123 ]

(* Inside one leaf, each further key of a scan costs its two index words
   (already in the leaf's runs) and one value load of [8 + len] bytes. *)
let test_scan_loads () =
  let kv = make () in
  let e = Kv.engine kv in
  for k = 0 to 9 do
    Kv.put kv k "twelve bytes"
  done;
  let scan count =
    measure e (fun () -> Kv.scan kv ~lo:2 ~count (fun _ v -> assert (v = "twelve bytes")))
  in
  let base_loads, base_bytes, n1 = scan 1 in
  Alcotest.(check int) "one visited" 1 n1;
  for m = 2 to 6 do
    let loads, bytes, n = scan m in
    Alcotest.(check int) "visited" m n;
    Alcotest.(check int) (Printf.sprintf "scan %d: loads" m) (base_loads + m - 1) loads;
    Alcotest.(check int)
      (Printf.sprintf "scan %d: bytes" m)
      (base_bytes + ((m - 1) * (16 + 8 + 12)))
      bytes
  done

(* Under undo logging the transaction's writes are in place; under CoW
   they sit in a working copy. Either way a read-modify-write after a put
   in the same transaction reads the put's bytes. *)
let test_rmw_sees_own_write () =
  List.iter
    (fun kind ->
      let kv = make ~kind () in
      let name = Engine.kind_name kind in
      Kv.put kv 3 "committed";
      let seen = ref "" in
      Engine.with_tx (Kv.engine kv) (fun tx ->
          Kv.put_tx tx kv 3 "in flight";
          Kv.rmw_tx tx kv 3 (fun s ->
              seen := s;
              s ^ "!"));
      Alcotest.(check string) (name ^ ": rmw read") "in flight" !seen;
      Alcotest.(check (option string)) (name ^ ": committed") (Some "in flight!")
        (Kv.get kv 3))
    [ Engine.Undo_logging; Engine.Cow ]

(* A value length word outside [0, value_size] — written into a crashed
   image — makes the reads refuse it instead of loading past the record. *)
let test_corrupt_length () =
  List.iter
    (fun bad ->
      let kv = make () in
      let e = Kv.engine kv in
      Kv.put kv 1 "one";
      Kv.put kv 2 "two";
      Engine.drain_backup e;
      let vptr = Option.get (Kv.value_ptr kv 1) in
      Engine.crash e;
      (* Both images: an aborted transaction restores the object from
         the backup. *)
      List.iter
        (fun r ->
          Region.write_int r vptr bad;
          Region.persist r vptr 8)
        [ Engine.main_region e; Option.get (Backup.full_region (Option.get (Engine.backup e))) ];
      Engine.recover e;
      let kv = Kv.reattach e in
      let refused what f =
        match f () with
        | _ -> Alcotest.failf "%s with length %d: not refused" what bad
        | exception Region.Corrupt { what = refusal; _ } ->
            Alcotest.(check string) (what ^ ": refusal")
              (Printf.sprintf "length %d outside [0, %d]" bad 256) refusal
      in
      refused "get" (fun () -> Kv.get kv 1);
      refused "scan" (fun () -> Kv.scan kv ~lo:0 ~count:2 (fun _ _ -> ()));
      refused "read_modify_write" (fun () -> Kv.read_modify_write kv 1 Fun.id);
      Alcotest.(check (option string)) "the neighbour still reads" (Some "two") (Kv.get kv 2);
      Alcotest.(check bool) "validate reports it" true (Kv.validate kv <> Ok ()))
    [ 257; -1 ]

(* Two clients on one engine insert fresh keys into the same tail leaf,
   back to back from the same instant. The value's allocator search runs
   before the leaf is declared, so the first's leaf hold does not contain
   it. The second waits for the allocator's mutex while the first
   searches (at [alloc_ns] 0 the search takes no time, since it loads
   nothing, and that wait vanishes), then for the leaf during the rest of
   the first's hold, and it runs its own search inside that hold. Its
   total wait is therefore the first's leaf hold, whatever [alloc_ns] is;
   with the search inside the hold, the wait would grow by [alloc_ns]. *)
let test_alloc_leaves_leaf_hold () =
  let second_wait kind alloc_ns =
    let cost = { config.Engine.cost with Kamino_nvm.Cost_model.alloc_ns } in
    let e = Engine.create ~config:{ config with Engine.cost } ~kind ~seed:5 () in
    let kv = Kv.create e ~value_size:256 ~node_size:512 in
    for k = 0 to 4 do
      Kv.put kv k "preloaded"
    done;
    let locks = Engine.locks e in
    let start = Engine.now e + 1_000_000 in
    let client () =
      let c = Clock.create () in
      ignore (Clock.advance_to c start);
      c
    in
    let first = client () and second = client () in
    Engine.set_clock e first;
    Kv.put kv 10 "first";
    let w0 = Locks.waits locks and n0 = Locks.wait_events locks in
    Engine.set_clock e second;
    Kv.put kv 11 "second";
    Alcotest.(check bool) "valid" true (Kv.validate kv = Ok ());
    (Locks.waits locks - w0, Locks.wait_events locks - n0)
  in
  List.iter
    (fun kind ->
      let name = Engine.kind_name kind in
      let wait, events = second_wait kind 0.0 in
      Alcotest.(check int) (name ^ ": a free search, then the leaf") 1 events;
      Alcotest.(check bool) (name ^ ": for the first's hold") true (wait > 0);
      List.iter
        (fun alloc_ns ->
          Alcotest.(check (pair int int))
            (Printf.sprintf "%s: the allocator's mutex, then the leaf, as long at alloc_ns %.0f"
               name alloc_ns)
            (wait, 2)
            (second_wait kind alloc_ns))
        [ 150.0; 300.0 ])
    [ Engine.Kamino_simple; Engine.Undo_logging ]

let test_crash_recover () =
  for_each atomic_kinds (fun name kv ->
      let e = Kv.engine kv in
      for k = 0 to 99 do
        Kv.put kv k (Printf.sprintf "v%d" k)
      done;
      Engine.crash e;
      Engine.recover e;
      let kv = Kv.reattach e in
      Alcotest.(check int) (name ^ ": size after crash") 100 (Kv.size kv);
      Alcotest.(check (option string)) (name ^ ": value intact") (Some "v42") (Kv.get kv 42);
      Alcotest.(check bool) (name ^ ": valid after crash") true (Kv.validate kv = Ok ());
      (* store is still writable after recovery *)
      Kv.put kv 1000 "post-crash";
      Alcotest.(check (option string)) (name ^ ": writable") (Some "post-crash")
        (Kv.get kv 1000))

let test_mixed_workload_with_crashes () =
  for_each atomic_kinds (fun name kv ->
      let e = Kv.engine kv in
      let rng = Rng.create 31 in
      let module M = Map.Make (Int) in
      let model = ref M.empty in
      let kv = ref kv in
      for round = 1 to 300 do
        let k = Rng.int rng 60 in
        (match Rng.int rng 4 with
        | 0 ->
            let v = Printf.sprintf "r%d-%d" round k in
            Kv.put !kv k v;
            model := M.add k v !model
        | 1 ->
            let deleted = Kv.delete !kv k in
            Alcotest.(check bool) (name ^ ": delete agrees with model") (M.mem k !model)
              deleted;
            model := M.remove k !model
        | 2 ->
            Alcotest.(check (option string)) (name ^ ": get agrees") (M.find_opt k !model)
              (Kv.get !kv k)
        | _ ->
            ignore (Kv.read_modify_write !kv k (fun s -> s ^ "!"));
            model := M.update k (Option.map (fun s -> s ^ "!")) !model);
        if round mod 60 = 0 then begin
          Engine.crash e;
          Engine.recover e;
          kv := Kv.reattach e;
          Alcotest.(check int) (name ^ ": size after recovery") (M.cardinal !model)
            (Kv.size !kv)
        end
      done;
      M.iter
        (fun k v ->
          Alcotest.(check (option string))
            (Printf.sprintf "%s: final key %d" name k)
            (Some v) (Kv.get !kv k))
        !model;
      Alcotest.(check bool) (name ^ ": final valid") true (Kv.validate !kv = Ok ()))

let () =
  Alcotest.run "kv"
    [
      ( "crud",
        [
          Alcotest.test_case "put/get" `Quick test_put_get;
          Alcotest.test_case "overwrite" `Quick test_overwrite;
          Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "read-modify-write" `Quick test_rmw;
          Alcotest.test_case "value size enforced" `Quick test_value_size_enforced;
          Alcotest.test_case "iter" `Quick test_iter;
          Alcotest.test_case "range scan" `Quick test_range;
          Alcotest.test_case "many keys" `Quick test_many_keys;
          Alcotest.test_case "two fences per put and delete" `Quick test_fence_budget;
          Alcotest.test_case "an update loads what a lookup loads" `Quick test_update_loads;
          Alcotest.test_case "a get is its lookup plus one value load" `Quick test_get_loads;
          Alcotest.test_case "a scan loads each value once" `Quick test_scan_loads;
          Alcotest.test_case "read-modify-write sees its own write" `Quick
            test_rmw_sees_own_write;
          Alcotest.test_case "allocator work leaves the leaf hold" `Quick
            test_alloc_leaves_leaf_hold;
        ] );
      ( "durability",
        [
          Alcotest.test_case "crash and recover" `Quick test_crash_recover;
          Alcotest.test_case "a corrupt length word is refused" `Quick test_corrupt_length;
          Alcotest.test_case "mixed workload with crashes" `Slow
            test_mixed_workload_with_crashes;
        ] );
    ]
