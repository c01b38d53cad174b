(* Kamino-Tx-Chain (§5) end to end: a replicated key-value store that
   tolerates f = 2 failures with in-place updates at every replica, then a
   guided tour of the failure protocols — fail-stop repair, head promotion,
   and quick-reboot recovery from a chain neighbour.

     dune exec examples/replicated_chain.exe *)

module Engine = Kamino_core.Engine
module Async = Kamino_chain.Async_chain
module Op = Kamino_chain.Op
module Kv = Kamino_kv.Kv

let show c msg =
  match Async.replicas_consistent c with
  | Ok () ->
      Printf.printf "%-46s %d replicas, consistent, %.0f MB cluster NVM\n" msg
        (List.length (Async.members c))
        (float_of_int (Async.storage_bytes c) /. 1e6)
  | Error e -> Printf.printf "%-46s INCONSISTENT: %s\n" msg e

(* Run one write through the chain and wait for the tail's ack. *)
let put c k v =
  Async.submit c ~at:(Kamino_sim.Engine.now (Async.sim c)) (Op.Put (k, v))
    ~on_complete:ignore;
  ignore (Async.run c)

let get c k =
  let result = ref None in
  Async.read c ~at:(Kamino_sim.Engine.now (Async.sim c)) k ~on_result:(fun v _ ->
      result := v);
  ignore (Async.run c);
  Option.value !result ~default:"<missing>"

(* Aborts are decided at the head and never enter the chain. *)
let put_aborted c k v = Kv.put_aborted (Async.kv_at c (Async.head_id c)) k v

let () =
  let c =
    Async.create
      ~engine_config:{ Engine.default_config with Engine.heap_bytes = 4 * 1024 * 1024 }
      ~mode:(Async.Kamino_chain { alpha = None })
      ~f:2 ~value_size:256 ~node_size:512 ~seed:21 ()
  in
  Printf.printf "Kamino-Tx-Chain, f=2: %d replicas (f+2); traditional would use 3 with\n"
    (Async.length c);
  Printf.printf "per-replica copies — here only the head keeps a backup.\n\n";

  (* Normal operation. *)
  for k = 0 to 199 do
    put c k (Printf.sprintf "value-%03d" k)
  done;
  show c "200 writes through the chain:";
  Printf.printf "  read at tail: key 42 = %s\n\n" (get c 42);

  put_aborted c 42 "aborted-write";
  show c "aborted write (local to the head):";
  Printf.printf "  key 42 is still %s\n\n" (get c 42);

  (* Quick reboot of a middle replica with an incomplete transaction: §5.3
     says it rolls forward from its predecessor. *)
  let mid_kv = Async.kv_at c 2 in
  let vptr = Option.get (Kv.value_ptr mid_kv 7) in
  let tx = Engine.begin_tx (Kv.engine mid_kv) in
  Engine.add tx vptr;
  Engine.write_string tx vptr 8 "torn!torn!torn!";
  (* no commit: the replica dies with the transaction in flight *)
  Async.reboot_now c 2;
  show c "replica 2 quick-rebooted mid-transaction:";
  Printf.printf "\n";

  (* Fail-stop of the tail, then of the head (which promotes replica 1 and
     builds it a backup once the promotion event has run). *)
  Async.fail_stop_now c 3;
  put c 500 "after tail failure";
  show c "tail failed and removed:";
  Async.fail_stop_now c 0;
  ignore (Async.run c);
  put c 501 "after head failure";
  put_aborted c 501 "abort on new head";
  show c "head failed; replica promoted (new backup):";
  Printf.printf "\n";

  Printf.printf "final read through the repaired chain: key 501 = %s\n" (get c 501)
