(* Crash-injection property tests: the heart of the reproduction.

   A random transactional workload ({!Tx_model.run_workload}, the crash
   matrix's driver) runs against each atomic engine kind while crashes
   are injected at arbitrary points — mid-transaction, right after commit
   (before the backup applier has propagated anything), mid-propagation,
   after aborts, and twice in a row, and at every fence of each recovery
   in turn. After every recovery the test
   asserts the fundamental atomicity contract:

   - every committed transaction's effects are intact (values match a model
     maintained at commit granularity),
   - every uncommitted transaction has vanished completely,
   - the heap's structural invariants hold (validate),
   - the engine remains usable (more transactions can run).

   The NVM simulator uses word-granular random survival of unflushed lines,
   so each seed exercises a different torn-write pattern. *)

module Region = Kamino_nvm.Region
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

(* undo, cow, kamino-simple and kamino-dynamic. *)
let atomic_kinds =
  List.filter_map
    (function name, Tx_model.Plain kind, true -> Some (name, kind) | _ -> None)
    Tx_model.kinds

let crash_test (name, kind) seed () =
  Tx_model.run_workload ~spec:(Plain kind) ~config ~seed ~rounds:60 name

(* A focused regression: commit several dependent updates to one object with
   crashes between them; the surviving value must always be the last
   committed stamp. *)
let test_dependent_chain_with_crashes (name, kind) () =
  let e = Engine.create ~config ~kind ~seed:7 () in
  let p =
    Engine.with_tx e (fun tx ->
        let p = Engine.alloc tx 512 in
        Tx_model.stamp_object tx p 512 0L;
        p)
  in
  for i = 1 to 30 do
    Engine.with_tx e (fun tx ->
        Engine.add tx p;
        Tx_model.stamp_object tx p 512 (Int64.of_int i));
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
        Tx_model.stamp_object tx p 256 100L;
        p)
  in
  for i = 1 to 20 do
    (* commit a new stamp *)
    Engine.with_tx e (fun tx ->
        Engine.add tx p;
        Tx_model.stamp_object tx p 256 (Int64.of_int (1000 + i)));
    (* abort an overwrite *)
    let tx = Engine.begin_tx e in
    Engine.add tx p;
    Tx_model.stamp_object tx p 256 9999L;
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
  let stamps = [ (256, 1L); (512, 2L); (64, 3L) ] in
  let setup () =
    let e =
      Engine.create ~config:{ config with Engine.crash_mode } ~kind ~seed:21 ()
    in
    let ps =
      Engine.with_tx e (fun tx ->
          List.map
            (fun (size, stamp) ->
              let p = Engine.alloc tx size in
              Tx_model.stamp_object tx p size stamp;
              (p, size))
            stamps)
    in
    (e, ps)
  in
  (* The swept transaction restamps the first two objects and frees the
     third. *)
  let change i = if i < 2 then Some (Int64.of_int (100 + i)) else None in
  let op (e, ps) =
    let tx = Engine.begin_tx e in
    List.iteri
      (fun i (p, size) ->
        match change i with
        | Some stamp ->
            Engine.add tx p;
            Tx_model.stamp_object tx p size stamp
        | None -> Engine.free tx p)
      ps;
    Engine.commit tx
  in
  (* The model's before- and after-states. *)
  let m = Tx_model.model () and ps = snd (setup ()) in
  let model_tx f =
    Tx_model.begin_tx m;
    List.iteri f ps;
    Tx_model.commit m;
    Tx_model.show_objects m
  in
  let before =
    model_tx (fun i (p, size) -> Tx_model.put m p (size, snd (List.nth stamps i)))
  in
  let after =
    model_tx (fun i (p, size) ->
        match change i with
        | Some stamp -> Tx_model.put m p (size, stamp)
        | None -> Tx_model.remove m p)
  in
  Fence_sweep.require_split ~ctx:name ~last_fence_commits:(kind = Engine.Undo_logging)
    (Fence_sweep.sweep ~ctx:name ~setup
       ~crash:(fun (e, _) -> Engine.crash e)
       ~recover:(fun (e, _) -> Engine.recover e)
       ~op
       ~drain:(fun (e, _) -> Engine.drain_backup e)
       ~observe:(fun (e, ps) -> Tx_model.observe_objects e ps)
       ~expect:(before, after)
       ~check:(fun (e, _) -> Tx_model.check_engine e)
       ())

(* Crash at every fence of a KV put whose backup miss evicts, on a
   kamino-dynamic engine whose 64 KiB slots region is full of value
   copies: the put, the applier drain after it, and the recoveries, which
   crash at each of their own fences in turn. The miss issues one fence of
   its own. The key word of its mapping is durable only at the put's
   intent-log barrier, and its victim's tombstone at the mapping's value
   fence. After every recovery the store equals the model's before- or
   after-state, and the backup and the store validate. *)
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
  let show = Tx_model.show string_of_int (fun v -> Digest.to_hex (Digest.string v)) in
  let observe s = show (Tx_model.of_iter (Kv.iter s.k_kv)) in
  let m = Tx_model.model () in
  let model_tx writes =
    Tx_model.begin_tx m;
    List.iter (fun (key, round) -> Tx_model.put m key (kv_value key round)) writes;
    Tx_model.commit m;
    show m
  in
  let before = model_tx (List.init kv_keys (fun i -> (i + 1, 1))) in
  let after = model_tx [ (1, 2) ] in
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
  let evicted = evictions reference in
  op reference;
  Alcotest.(check bool) "the put's miss evicts" true (evictions reference > evicted);
  let st =
    Fence_sweep.sweep ~ctx:"evicting put" ~setup
      ~crash:(fun s -> Engine.crash s.k_e)
      ~recover:(fun s ->
        Engine.recover s.k_e;
        s.k_kv <- Kv.reattach s.k_e)
      ~op
      ~drain:(fun s -> Engine.drain_backup s.k_e)
      ~observe ~expect:(before, after) ~check ()
  in
  (* The put: the miss's value fence, the intent-log barrier, and one
     fence for the write set and its sealed commit mark; the drain: the
     backup's settle and the slot's release. *)
  Alcotest.(check int) "evicting put: crash points" 5 st.Fence_sweep.points;
  Fence_sweep.require_split ~ctx:"evicting put" st

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
