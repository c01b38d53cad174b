(* The paper's contribution, in both backup flavors. Declaring an intent
   appends a small range record to the intent log and ensures the backup
   holds a pre-transaction copy (a no-op for the full backup outside
   recovery; an on-demand critical-path copy for the dynamic one); writes
   go in place; commit marks the record committed and enqueues the write
   set to the background {!Applier}. Where hashing the write set costs
   less than a fence, the mark carries that hash and shares the write
   set's fence (DESIGN.md par25). Write locks release only at the
   applier's finish time, so only dependent transactions ever wait for
   copying (§4.3).

   [simple] (full backup, dirty-line propagation, write-set coalescing)
   and [dynamic] (object-keyed partial backup of [alpha]·heap, exact
   per-object ranges only) share every path below; [~dynamic] selects the
   granularity rules.

   The two-phase path splits commit into prepare (write set durable,
   outcome undecided) and commit_prepared (mark committed, enqueue
   propagation, release) so the sharded façade can interleave a
   persistent cross-shard commit marker between the two. There the
   marker decides the outcome, so the mark keeps its own fence. *)

open Variant

let claim_with_pressure t tx =
  let ilog = the_ilog t in
  let appl = the_appl t in
  let rec claim () =
    match Intent_log.begin_record ilog ~tx_id:tx.id with
    | Some s -> s
    | None -> (
        (* Every slot holds a committed-but-unapplied record: wait
           (virtually) for the applier to retire the oldest. *)
        match Applier.drain_one appl with
        | Some finish ->
            ignore (Clock.advance_to t.clk finish);
            claim ()
        | None -> error (Intent_log_exhausted "head: applier queue is empty"))
  in
  claim ()

let declare ~dynamic t tx ~le ~off ~len ~redirectable:_ =
  let appl = the_appl t and b = the_bkp t in
  (if t.e_config.global_pending then begin
     (* Coarse-blocking ablation: wait for the whole backup to catch up
        before touching anything. *)
     if Applier.queued appl > 0 then begin
       ignore (Clock.advance_to t.clk (Applier.virtual_now appl));
       Applier.drain appl
     end
   end
   else begin
     (* The lock wait already advanced our clock past the applier finish
        time for this object; catch the data up too. *)
     let last = Locks.last_writer_task_e le in
     if last > Applier.applied_through appl then Applier.sync_through appl last
   end);
  let slot = claim_slot tx in
  (* A dynamic miss publishes its mapping with the key word flushed but
     unfenced, and the next fence on this domain (a later miss's, or the
     barrier's) makes it durable. Recovery forgets only mappings that a
     durable intent names, so a miss appends and flushes its entry first:
     the miss's own fence makes the entry durable before the key word is
     written. The flush leaves the barrier owing a fence, so the barrier
     before the first in-place write still fences, which makes the last
     miss's key word durable (DESIGN.md par17). *)
  let miss = not (Backup.holds_copy b ~off ~len) in
  log_intent t slot ~mergeable:((not dynamic) && t.e_config.coalesce_writes) ~off
    ~len;
  if miss then Intent_log.flush (the_ilog t) slot;
  Backup.ensure_copy b ~main:t.main ~off ~len ~locked:(pinned t)
    ~pressure:(fun () -> Applier.drain appl);
  None

let barrier t tx =
  match tx.slot with
  | Some slot -> Intent_log.barrier (the_ilog t) slot
  | None -> ()

(* Phase one: everything the transaction wrote is durable on the main
   heap, the intent record durable in the log, but the record still says
   [Running] — a crash now rolls the transaction back. *)
let prepare t tx =
  match tx.slot with
  | None -> ()  (* read-only: nothing to make durable *)
  | Some _ ->
      do_barrier tx;
      persist_ws t ~in_place_only:false

(* After the commit mark: hand the write set to the applier, release the
   locks at the applier's finish time (the paper's rule: write locks
   release only once main and backup agree on the write set). *)
let hand_to_applier ~dynamic t tx slot =
  let appl = the_appl t in
  let iranges =
    if (not dynamic) && t.e_config.coalesce_writes then
      (* Full backups copy at byte granularity, so the task carries only
         the lines the transaction wrote, coalesced (DESIGN.md par19).
         Dynamic backups need the raw per-object ranges. *)
      coalesce_write_set t
    else begin
      let acc = ref [] in
      for i = t.ws_n - 1 downto 0 do
        let r = t.ws.(i) in
        acc := { Intent_log.off = r.r_off; len = r.r_len } :: !acc
      done;
      !acc
    end
  in
  let tcost = task_cost (cost t) iranges in
  let task, finish_at =
    Applier.enqueue appl ~commit_time:(Clock.now t.clk) ~cost_ns:tcost ~tx_id:tx.id
      ~slot ~ranges:iranges
  in
  List.iter (fun e -> Locks.set_last_writer_task_e e task) tx.lock_entries;
  (if Obs.enabled t.e_obs then begin
     (* The task occupies [finish_at - cost, finish_at) of the applier's
        private timeline ([Applier.enqueue] computes
        [finish = max vnow commit_time + cost]); applier lag is how far
        that finish runs ahead of the committing client. *)
     let nowc = Clock.now t.clk in
     Metrics.observe t.h_applier_lag (finish_at - nowc);
     let depth = Applier.queued appl in
     Metrics.observe t.h_queue_depth depth;
     let icost = int_of_float tcost in
     Obs.emit t.e_obs ~kind:Obs.k_applier_task ~track:(t.obs_base + 1)
       ~ts:(finish_at - icost) ~dur:icost ~a:tx.id
       ~b:(List.length iranges)
       ~c:(Intent_log.total_bytes iranges);
     Obs.emit t.e_obs ~kind:Obs.k_queue_depth ~track:(t.obs_base + 1) ~ts:nowc
       ~dur:(-1) ~a:depth ~b:0 ~c:0
   end);
  release_all tx ~write_release:finish_at

(* The write set is flushed, then either sealed under one fence or
   fenced and marked. A sealed mark can persist before some of the
   write set's lines; recovery then finds the hash wrong and rolls the
   record back, so the fence that orders them is not needed. *)
let commit ~dynamic t tx =
  match tx.slot with
  | None ->
      (* Read-only transaction: the log was never touched. *)
      release_all tx ~write_release:(Clock.now t.clk)
  | Some slot ->
      let ilog = the_ilog t in
      do_barrier tx;
      let n = flush_ws t ~in_place_only:false in
      if Intent_log.seal ilog slot ~main:t.main then Region.fence t.main
      else begin
        if n > 0 then Region.fence t.main;
        Intent_log.mark ilog slot Intent_log.Committed
      end;
      hand_to_applier ~dynamic t tx slot

let commit_prepared ~dynamic t tx =
  match tx.slot with
  | None -> release_all tx ~write_release:(Clock.now t.clk)
  | Some slot ->
      Intent_log.mark (the_ilog t) slot Intent_log.Committed;
      hand_to_applier ~dynamic t tx slot

let abort t tx =
  (match tx.slot with
  | None -> ()
  | Some slot ->
      let ilog = the_ilog t and b = the_bkp t in
      Intent_log.mark ilog slot Intent_log.Aborted;
      (* Roll back in place from the backup — Figure 6's abort timeline:
         synchronous, but only for the aborting transaction's write set.
         The rolled-back ranges' resident copies are dropped: a
         rolled-back allocation's space may be re-carved with different
         extent boundaries later. *)
      for i = 0 to t.ws_n - 1 do
        let r = t.ws.(i) in
        ignore (Backup.roll_back b ~main:t.main ~off:r.r_off ~len:r.r_len);
        Backup.drop b ~off:r.r_off
      done;
      Intent_log.release ilog slot);
  release_all tx ~write_release:(Clock.now t.clk)

let recover t ~promote_running =
  let ilog = Intent_log.open_existing (Option.get t.ilog_region) in
  t.ilog <- Some ilog;
  let b = Backup.reopen (the_bkp t) in
  t.bkp <- Some b;
  t.next_tx_id <- max t.next_tx_id (Intent_log.max_tx_id ilog + 1);
  t.appl <- Some (make_applier t);
  (* Records are visited in transaction order; committed ones roll the
     backup forward, incomplete or aborted ones roll the main heap back.
     The locking discipline guarantees the two sets of ranges are
     disjoint. A sealed [Committed] record whose hash does not match the
     image lost some of its write set at the crash and rolls back like an
     aborted one; every verdict is read before any record is resolved.
     [promote_running] is the sharded commit marker's decision:
     a [Running] record it claims was part of a marked cross-shard commit
     had its in-place writes made durable by [prepare] before the marker
     was written, so rolling it {e forward} is safe — the main heap
     already holds the committed bytes. A record rolls forward its full
     logged ranges (the dirty-line clipping is volatile and lost), fenced
     once before its slot is released. *)
  let pending = ref [] in
  Intent_log.iter_records ilog (fun slot txid state intents ->
      let state =
        match state with
        | Intent_log.Committed when not (Intent_log.commit_holds ilog slot ~main:t.main intents)
          ->
            Intent_log.Aborted
        | s -> s
      in
      pending := (slot, txid, state, intents) :: !pending);
  List.iter
    (fun (slot, txid, state, intents) ->
      (match state with
      | Intent_log.Committed -> propagate_ranges b t.main intents
      | Intent_log.Running when promote_running txid ->
          propagate_ranges b t.main intents
      | Intent_log.Running | Intent_log.Aborted ->
          List.iter
            (fun { Intent_log.off; len } ->
              ignore (Backup.roll_back b ~main:t.main ~off ~len);
              Backup.drop b ~off)
            intents
      | Intent_log.Free -> ());
      Intent_log.release ilog slot)
    (List.rev !pending)

let make ~dynamic =
  {
    v_object_granular = dynamic;
    v_begin = (fun _ ~tx_id:_ -> ());
    v_claim_slot = claim_with_pressure;
    v_declare = declare ~dynamic;
    v_pre_free = no_op_pre_free;
    v_barrier = barrier;
    v_commit = commit ~dynamic;
    v_abort = abort;
    v_prepare = prepare;
    v_commit_prepared = commit_prepared ~dynamic;
    v_recover = recover;
  }

let simple = make ~dynamic:false

let dynamic = make ~dynamic:true
