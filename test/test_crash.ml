(* Crash-injection property tests: the heart of the reproduction.

   A random transactional workload runs against each atomic engine kind
   while crashes are injected at arbitrary points — mid-transaction, right
   after commit (before the backup applier has propagated anything), after
   aborts. After every recovery the test asserts the fundamental atomicity
   contract:

   - every committed transaction's effects are intact (values match a model
     maintained at commit granularity),
   - every uncommitted transaction has vanished completely,
   - the heap's structural invariants hold (validate),
   - the engine remains usable (more transactions can run).

   The NVM simulator uses word-granular random survival of unflushed lines,
   so each seed exercises a different torn-write pattern. *)

module Rng = Kamino_sim.Rng
module Region = Kamino_nvm.Region
module Heap = Kamino_heap.Heap
module Engine = Kamino_core.Engine
module Backup = Kamino_core.Backup
module Kv = Kamino_kv.Kv

let config =
  {
    Engine.default_config with
    Engine.heap_bytes = 1 lsl 20;
    log_slots = 16;
    data_log_bytes = 1 lsl 18;
  }

let atomic_kinds =
  [
    ("undo", Engine.Undo_logging);
    ("cow", Engine.Cow);
    ("kamino-simple", Engine.Kamino_simple);
    ("kamino-dynamic", Engine.Kamino_dynamic { alpha = 0.3; policy = Backup.Lru_policy });
  ]

(* The committed-state model: object pointer -> (size, stamp value). *)
type model = (Heap.ptr, int * int64) Hashtbl.t

let verify_model e (model : model) context =
  Hashtbl.iter
    (fun p (size, stamp) ->
      if not (Heap.is_allocated (Engine.heap e) p) then
        Alcotest.failf "%s: committed object %d lost" context p;
      let v = Engine.peek_int64 e p 0 in
      if v <> stamp then
        Alcotest.failf "%s: object %d has stamp %Ld, expected %Ld" context p v stamp;
      (* the stamp is replicated across the whole payload in 8-byte words *)
      let words = size / 8 in
      for w = 1 to words - 1 do
        let v = Engine.peek_int64 e p (w * 8) in
        if v <> stamp then
          Alcotest.failf "%s: object %d word %d torn: %Ld <> %Ld" context p w v stamp
      done)
    model;
  match Heap.validate (Engine.heap e) with
  | Ok () -> ()
  | Error err -> Alcotest.failf "%s: heap invalid after recovery: %s" context err

let stamp_object tx p size stamp =
  for w = 0 to (size / 8) - 1 do
    Engine.write_int64 tx p (w * 8) stamp
  done

(* One random transaction; returns the model mutation to apply if it
   commits. [steps] optionally limits how many operations run before the
   caller crashes the machine mid-flight. *)
let random_tx rng e (model : model) =
  let tx = Engine.begin_tx e in
  let pending = ref [] in
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) model [] in
  let n_ops = 1 + Rng.int rng 3 in
  for _ = 1 to n_ops do
    match Rng.int rng 10 with
    | 0 | 1 | 2 ->
        (* allocate a fresh object *)
        let size = [| 32; 64; 256; 1024 |].(Rng.int rng 4) in
        let p = Engine.alloc tx size in
        let stamp = Rng.int64 rng in
        stamp_object tx p size stamp;
        pending := `Put (p, size, stamp) :: !pending
    | 3 when keys <> [] ->
        (* free an existing object (not one touched this tx) *)
        let p = List.nth keys (Rng.int rng (List.length keys)) in
        if not (List.exists (function `Put (q, _, _) | `Del q -> q = p) !pending) then begin
          Engine.free tx p;
          pending := `Del p :: !pending
        end
    | _ when keys <> [] ->
        (* update an existing object *)
        let p = List.nth keys (Rng.int rng (List.length keys)) in
        if not (List.exists (function `Del q -> q = p | `Put _ -> false) !pending) then begin
          let size, _ = Hashtbl.find model p in
          Engine.add tx p;
          let stamp = Rng.int64 rng in
          stamp_object tx p size stamp;
          pending := `Put (p, size, stamp) :: !pending
        end
    | _ -> ()
  done;
  (tx, !pending)

let apply_to_model model pending =
  List.iter
    (function
      | `Put (p, size, stamp) -> Hashtbl.replace model p (size, stamp)
      | `Del p -> Hashtbl.remove model p)
    (List.rev pending)

let run_crash_workload name kind ~seed ~rounds =
  let rng = Rng.create seed in
  let e = Engine.create ~config ~kind ~seed:(seed + 1000) () in
  let model : model = Hashtbl.create 64 in
  for round = 1 to rounds do
    let context = Printf.sprintf "%s seed=%d round=%d" name seed round in
    match Rng.int rng 10 with
    | 0 ->
        (* crash mid-transaction *)
        let tx, _pending = random_tx rng e model in
        ignore tx;
        Engine.crash e;
        Engine.recover e;
        verify_model e model (context ^ " (mid-tx crash)")
    | 1 ->
        (* crash immediately after commit, before any backup draining *)
        let tx, pending = random_tx rng e model in
        Engine.commit tx;
        apply_to_model model pending;
        Engine.crash e;
        Engine.recover e;
        verify_model e model (context ^ " (post-commit crash)")
    | 2 ->
        (* deliberate abort, then crash *)
        let tx, _pending = random_tx rng e model in
        Engine.abort tx;
        Engine.crash e;
        Engine.recover e;
        verify_model e model (context ^ " (post-abort crash)")
    | 3 ->
        (* abort without crash *)
        let tx, _pending = random_tx rng e model in
        Engine.abort tx;
        verify_model e model (context ^ " (abort)")
    | 4 ->
        (* double crash: crash during recovery's aftermath *)
        let tx, pending = random_tx rng e model in
        Engine.commit tx;
        apply_to_model model pending;
        Engine.crash e;
        Engine.recover e;
        Engine.crash e;
        Engine.recover e;
        verify_model e model (context ^ " (double crash)")
    | _ ->
        (* plain committed transaction *)
        let tx, pending = random_tx rng e model in
        Engine.commit tx;
        apply_to_model model pending
  done;
  (* Final: clean drain, verify data, and check the backup invariant. *)
  Engine.drain_backup e;
  verify_model e model (Printf.sprintf "%s seed=%d final" name seed);
  match Engine.verify_backup e with
  | Ok () -> ()
  | Error err -> Alcotest.failf "%s seed=%d: %s" name seed err

let crash_test (name, kind) seed () = run_crash_workload name kind ~seed ~rounds:60

(* A focused regression: commit several dependent updates to one object with
   crashes between them; the surviving value must always be the last
   committed stamp. *)
let test_dependent_chain_with_crashes (name, kind) () =
  let e = Engine.create ~config ~kind ~seed:7 () in
  let p =
    Engine.with_tx e (fun tx ->
        let p = Engine.alloc tx 512 in
        stamp_object tx p 512 0L;
        p)
  in
  for i = 1 to 30 do
    Engine.with_tx e (fun tx ->
        Engine.add tx p;
        stamp_object tx p 512 (Int64.of_int i));
    if i mod 3 = 0 then begin
      Engine.crash e;
      Engine.recover e
    end;
    let v = Engine.peek_int64 e p 0 in
    if v <> Int64.of_int i then
      Alcotest.failf "%s: after commit %d the value is %Ld" name i v
  done

(* Aborts interleaved with commits on the same object: an abort must always
   restore the most recent committed stamp, even right after a crash. *)
let test_abort_restores_latest_commit (name, kind) () =
  let e = Engine.create ~config ~kind ~seed:11 () in
  let p =
    Engine.with_tx e (fun tx ->
        let p = Engine.alloc tx 256 in
        stamp_object tx p 256 100L;
        p)
  in
  for i = 1 to 20 do
    (* commit a new stamp *)
    Engine.with_tx e (fun tx ->
        Engine.add tx p;
        stamp_object tx p 256 (Int64.of_int (1000 + i)));
    (* abort an overwrite *)
    let tx = Engine.begin_tx e in
    Engine.add tx p;
    stamp_object tx p 256 9999L;
    Engine.abort tx;
    let v = Engine.peek_int64 e p 0 in
    if v <> Int64.of_int (1000 + i) then
      Alcotest.failf "%s: abort %d restored %Ld, expected %d" name i v (1000 + i);
    if i mod 4 = 0 then begin
      Engine.crash e;
      Engine.recover e;
      let v = Engine.peek_int64 e p 0 in
      if v <> Int64.of_int (1000 + i) then
        Alcotest.failf "%s: crash after abort %d lost the committed stamp" name i
    end
  done

(* Every fence of one committed transaction, recovery's own fences
   included: the transaction updates two objects and frees a third, then
   the applier drains. A crash at any of those fences, followed by
   recoveries that themselves crash at each of their fences in turn, must
   leave exactly the before- or the after-state (the after-state once
   the commit has returned), with the heap valid and
   the backup matching the main copy. The random workloads above crash
   only between whole operations, and "double crash" only after a
   recovery has finished. *)
let test_every_fence (name, kind) crash_mode () =
  let setup () =
    let e =
      Engine.create ~config:{ config with Engine.crash_mode } ~kind ~seed:21 ()
    in
    let ps =
      Engine.with_tx e (fun tx ->
          List.map
            (fun (size, stamp) ->
              let p = Engine.alloc tx size in
              stamp_object tx p size stamp;
              (p, size))
            [ (256, 1L); (512, 2L); (64, 3L) ])
    in
    (e, ps)
  in
  let op (e, ps) =
    let tx = Engine.begin_tx e in
    List.iteri
      (fun i (p, size) ->
        if i < 2 then begin
          Engine.add tx p;
          stamp_object tx p size (Int64.of_int (100 + i))
        end
        else Engine.free tx p)
      ps;
    Engine.commit tx
  in
  let observe (e, ps) =
    String.concat " "
      (List.map
         (fun (p, size) ->
           if not (Heap.is_allocated (Engine.heap e) p) then "free"
           else
             String.concat ","
               (List.init (size / 8) (fun w -> Int64.to_string (Engine.peek_int64 e p (w * 8)))))
         ps)
  in
  let check (e, _) here =
    (match Heap.validate (Engine.heap e) with
    | Ok () -> ()
    | Error err -> Alcotest.failf "%s: heap invalid: %s" here err);
    match Engine.verify_backup e with
    | Ok () -> ()
    | Error err -> Alcotest.failf "%s: backup: %s" here err
  in
  let st =
    Fence_sweep.sweep ~ctx:name ~setup
      ~crash:(fun (e, _) -> Engine.crash e)
      ~recover:(fun (e, _) -> Engine.recover e)
      ~op
      ~drain:(fun (e, _) -> Engine.drain_backup e)
      ~observe ~check ()
  in
  if st.Fence_sweep.after < 1 || st.Fence_sweep.after >= st.Fence_sweep.points then
    Alcotest.failf "%s: %d of %d crash points rolled forward; expected some but not all" name
      st.Fence_sweep.after st.Fence_sweep.points;
  if st.Fence_sweep.recovery_points = 0 then
    Alcotest.failf "%s: no crash point inside recovery" name

(* Crash at every fence of a KV put whose backup miss evicts, on a
   kamino-dynamic engine whose 64 KiB slots region is full of value
   copies: the put, the applier drain after it, and the recoveries, which
   crash at each of their own fences in turn. The miss issues one fence of
   its own. The key word of its mapping is durable only at the put's
   intent-log barrier, and its victim's tombstone at the mapping's value
   fence. After every recovery the store equals the before- or the
   after-mirror, and the backup and the store validate. *)
type kv_state = { k_e : Engine.t; mutable k_kv : Kv.t }

let kv_keys = 96
let kv_value key round = String.make 1000 (Char.chr (97 + ((key + round) mod 26)))

let test_evicting_put_every_fence crash_mode () =
  let evictions s = Backup.evictions (Option.get (Engine.backup s.k_e)) in
  let setup () =
    let e =
      Engine.create
        ~config:{ config with Engine.crash_mode }
        ~kind:(Engine.Kamino_dynamic { alpha = 0.01; policy = Backup.Lru_policy })
        ~seed:9 ()
    in
    let kv = Kv.create e ~value_size:1000 ~node_size:4096 in
    for round = 0 to 1 do
      for key = 1 to kv_keys do
        Kv.put kv key (kv_value key round)
      done
    done;
    Engine.drain_backup e;
    { k_e = e; k_kv = kv }
  in
  let op s = Kv.put s.k_kv 1 (kv_value 1 2) in
  let observe s =
    let b = Buffer.create (kv_keys * 1000) in
    Kv.iter s.k_kv (fun k v -> Buffer.add_string b (Printf.sprintf "%d=%s;" k v));
    Printf.sprintf "%d keys, key 1 = %s..., digest %s" (Kv.size s.k_kv)
      (String.sub (Option.value (Kv.get s.k_kv 1) ~default:"absent") 0 6)
      (Digest.to_hex (Digest.string (Buffer.contents b)))
  in
  let check s here =
    (match Engine.verify_backup s.k_e with
    | Ok () -> ()
    | Error err -> Alcotest.failf "%s: backup: %s" here err);
    match Kv.validate s.k_kv with
    | Ok () -> ()
    | Error err -> Alcotest.failf "%s: store invalid: %s" here err
  in
  let reference = setup () in
  Alcotest.(check bool) "the setup fills the slots region" true (evictions reference > 0);
  let before = evictions reference in
  op reference;
  Alcotest.(check bool) "the put's miss evicts" true (evictions reference > before);
  let st =
    Fence_sweep.sweep ~ctx:"evicting put" ~setup
      ~crash:(fun s -> Engine.crash s.k_e)
      ~recover:(fun s ->
        Engine.recover s.k_e;
        s.k_kv <- Kv.reattach s.k_e)
      ~op
      ~drain:(fun s -> Engine.drain_backup s.k_e)
      ~observe ~check ()
  in
  (* The put: the miss's value fence, the intent-log barrier, the write
     set's persist and the commit mark; the drain: the backup's settle and
     the slot's release. *)
  Alcotest.(check int) "evicting put: crash points" 6 st.Fence_sweep.points;
  if st.Fence_sweep.after < 1 || st.Fence_sweep.after >= st.Fence_sweep.points then
    Alcotest.failf "evicting put: %d of %d crash points rolled forward; expected some but not all"
      st.Fence_sweep.after st.Fence_sweep.points;
  if st.Fence_sweep.recovery_points = 0 then
    Alcotest.failf "evicting put: no crash point inside recovery"

let () =
  let workload_cases =
    List.concat_map
      (fun (name, kind) ->
        List.map
          (fun seed ->
            Alcotest.test_case
              (Printf.sprintf "%s random crashes (seed %d)" name seed)
              `Slow
              (crash_test (name, kind) seed))
          [ 1; 2; 3; 4; 5; 6; 7; 8 ])
      atomic_kinds
  in
  let focused_cases =
    List.concat_map
      (fun (name, kind) ->
        [
          Alcotest.test_case (name ^ " dependent chain with crashes") `Quick
            (test_dependent_chain_with_crashes (name, kind));
          Alcotest.test_case (name ^ " abort restores latest commit") `Quick
            (test_abort_restores_latest_commit (name, kind));
        ])
      atomic_kinds
  in
  let fence_cases =
    List.map
      (fun (name, kind) ->
        Alcotest.test_case (name ^ " every fence, recovery's included") `Quick (fun () ->
            List.iter
              (fun mode -> test_every_fence (name, kind) mode ())
              [ Region.Words_survive_randomly; Region.Lines_survive_randomly; Region.Drop_unflushed ]))
      atomic_kinds
    @ [
        Alcotest.test_case "kamino-dynamic evicting put, every fence" `Quick (fun () ->
            List.iter
              (fun mode -> test_evicting_put_every_fence mode ())
              [ Region.Words_survive_randomly; Region.Lines_survive_randomly; Region.Drop_unflushed ]);
      ]
  in
  Alcotest.run "crash"
    [
      ("random workloads", workload_cases);
      ("focused", focused_cases);
      ("fence sweep", fence_cases);
    ]
