(* [Intent_only]: a non-head chain replica (§5). In-place updates guarded
   only by the intent log — there is no local backup, so incomplete
   records cannot be resolved locally; the chain layer supplies a peer
   ([Engine.resolve_from_peer]) before the replica rejoins, which is the
   reason Kamino-Tx-Chain needs [f+2] replicas. Aborts are decided at the
   head and never forwarded, so local rollback is unsupported: an
   exception inside a transaction leaves its record for a peer.

   A record is claimed, barriered before the first in-place write, and
   released once the write set is durable. Its state word is never
   advanced past [Running]: no recovery path reads an outcome here, since
   [resolve_from_peer] copies every record's ranges from the peer
   whatever its state, and [recover] only reopens the log. So a commit
   costs the write set's persist and the release, and no commit mark. *)

open Variant

let claim_once t tx =
  (* Replica slots are released at commit, so a free one always exists
     under serial execution. *)
  match Intent_log.begin_record (the_ilog t) ~tx_id:tx.id with
  | Some s -> s
  | None -> error (Intent_log_exhausted "replica")

let declare t tx ~le:_ ~off ~len ~redirectable:_ =
  (* Record the intent, edit in place; the chain's neighbours stand in
     for the backup at recovery. *)
  let slot = claim_slot tx in
  log_intent t slot ~mergeable:t.e_config.coalesce_writes ~off ~len;
  None

let barrier t tx =
  match tx.slot with
  | Some slot -> Intent_log.barrier (the_ilog t) slot
  | None -> ()

let commit t tx =
  (match tx.slot with
  | None -> ()  (* read-only: the log was never touched *)
  | Some slot ->
      let ilog = the_ilog t in
      do_barrier tx;
      persist_ws t ~in_place_only:false;
      (* No local backup to synchronize and no outcome to record: the
         record only needs to outlive the in-place writes it covers,
         which are durable now, and recovery resolves every record from a
         peer whatever its state. *)
      Intent_log.release ilog slot);
  release_all tx ~write_release:(Clock.now t.clk)

(* No local rollback: the locks go now, and a record already claimed
   stays [Running] over an image that may be torn, so the engine refuses
   new transactions until a peer resolves it. The record is durable, so
   a crash does not lift the refusal: [recover] finds it again. *)
let abort t tx =
  release_all tx ~write_release:(Clock.now t.clk);
  if tx.slot <> None then t.unresolved <- Some tx.id;
  finish tx;
  error (Abort_unsupported Intent_only)

let recover t ~promote_running:_ =
  (* Reopen only: incomplete records wait for [resolve_from_peer], and
     until it runs the engine refuses to begin, as after an abort. *)
  let ilog = Intent_log.open_existing (Option.get t.ilog_region) in
  t.ilog <- Some ilog;
  let newest = Intent_log.max_tx_id ilog in
  t.next_tx_id <- max t.next_tx_id (newest + 1);
  if Intent_log.free_slots ilog < Intent_log.slot_count ilog then t.unresolved <- Some newest

let ops =
  {
    v_object_granular = false;
    v_begin = (fun _ ~tx_id:_ -> ());
    v_claim_slot = claim_once;
    v_declare = declare;
    v_pre_free = no_op_pre_free;
    v_barrier = barrier;
    v_commit = commit;
    v_abort = abort;
    v_prepare = unsupported "prepare (intent-only)";
    v_commit_prepared = unsupported "commit_prepared (intent-only)";
    v_recover = recover;
  }
