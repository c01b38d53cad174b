(* [Cow]: declaring a redirectable intent creates a working copy in the
   data-log arena; transactional writes and reads are redirected to it
   (the shell follows [irec.cow]), and commit applies the copies to the
   originals before the locks release — critical-path copying moved to the
   commit side (Figure 5's CoW timeline). Non-redirectable ranges
   (fresh and freed extents, the root pointer) get undo
   snapshots and are edited in place. *)

open Variant

let begin_ t ~tx_id = Data_log.begin_tx (the_dlog t) ~tx_id

(* The earlier working copies overlapping [off, off+len), in write-set
   order, or [None] if there are none. A new working copy starts from the
   transaction's view of its range, so a field written through a narrower
   copy survives a later declare of the whole object or of an overlapping
   field. *)
let overlapping_copies t ~off ~len =
  let acc = ref [] in
  for i = t.ws_n - 1 downto 0 do
    match t.ws.(i).cow with
    | Some (e : Data_log.entry) when e.off < off + len && off < e.off + e.len -> acc := e :: !acc
    | _ -> ()
  done;
  match !acc with [] -> None | over -> Some over

let declare t _tx ~le:_ ~off ~len ~redirectable =
  if redirectable then
    Some
      (Data_log.add ?over:(overlapping_copies t ~off ~len) (the_dlog t) ~off ~len
         ~replay:Data_log.On_commit ~src:t.main)
  else begin
    ignore
      (Data_log.add (the_dlog t) ~off ~len ~replay:Data_log.On_abort ~src:t.main);
    None
  end

(* [free] on a redirected object: fold the working copy into the main heap
   and revert to in-place editing before the deallocator mutates the extent
   directly. The fold is preceded by an undo snapshot of the
   pre-transaction bytes so an abort can still restore them. *)
let pre_free t _tx (extent : Heap.range) =
  let i = ws_find_off t extent.Heap.off in
  if i >= 0 then
    let r = t.ws.(i) in
    match r.cow with
    | Some entry ->
        let dlog = the_dlog t in
        ignore
          (Data_log.add dlog ~off:extent.Heap.off ~len:extent.Heap.len
             ~replay:Data_log.On_abort ~src:t.main);
        Data_log.reseal dlog entry;
        Data_log.barrier dlog;
        Data_log.apply_entry dlog entry ~dst:t.main;
        Region.persist t.main extent.Heap.off extent.Heap.len;
        r.cow <- None;
        t.ws_cow_n <- t.ws_cow_n - 1
    | None -> ()

let barrier t _tx = Data_log.barrier (the_dlog t)

let commit t tx =
  if t.ws_n = 0 then begin
    Data_log.finish (the_dlog t);
    release_all tx ~write_release:(Clock.now t.clk)
  end
  else begin
    let dlog = the_dlog t in
    (* Working copies get their final checksums; in-place ranges get
       commit-time redo snapshots so the [Applying] phase can replay
       everything from the arena alone. Arena order guarantees these
       commit-time snapshots are applied last, superseding any stale
       working copy of an object that was folded back and freed. *)
    for i = 0 to t.ws_n - 1 do
      match t.ws.(i).cow with
      | Some entry -> Data_log.reseal dlog entry
      | None -> ()
    done;
    for i = 0 to t.ws_n - 1 do
      let r = t.ws.(i) in
      if r.cow = None then
        ignore
          (Data_log.add dlog ~off:r.r_off ~len:r.r_len ~replay:Data_log.On_commit
             ~src:t.main)
    done;
    Data_log.barrier dlog;
    Data_log.mark_applying dlog;
    (* Apply the copies to the originals — the critical-path copy-back of
       Figure 5's CoW timeline — then persist everything. *)
    for i = 0 to t.ws_n - 1 do
      match t.ws.(i).cow with
      | Some entry -> Data_log.apply_entry dlog entry ~dst:t.main
      | None -> ()
    done;
    persist_ws t ~in_place_only:false;
    Data_log.finish dlog;
    release_all tx ~write_release:(Clock.now t.clk)
  end

let ops =
  {
    v_object_granular = false;
    v_begin = begin_;
    v_claim_slot = (fun _ _ -> error (Component_missing "intent log"));
    v_declare = declare;
    v_pre_free = pre_free;
    v_barrier = barrier;
    v_commit = commit;
    v_abort = data_log_abort;
    v_prepare = unsupported "prepare (cow)";
    v_commit_prepared = unsupported "commit_prepared (cow)";
    v_recover = (fun t ~promote_running:_ -> data_log_recover t);
  }
