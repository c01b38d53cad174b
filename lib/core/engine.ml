(* The kind-independent shell of the transaction engine. Shared state,
   the strategy signature and the helper toolbox live in {!Variant}; the
   per-kind critical paths (declare/commit/abort/recover) live in the
   variant modules and are dispatched through [t.strat]. This module owns
   what every kind shares: construction, write-set tracking, lock
   acquisition with wait attribution, clock plumbing, the data accessors,
   crash/recovery scaffolding, and metrics. *)

open Variant
module Region = Kamino_nvm.Region
module Cost_model = Kamino_nvm.Cost_model
module Clock = Kamino_sim.Clock
module Rng = Kamino_sim.Rng
module Heap = Kamino_heap.Heap
module Obs = Kamino_obs.Obs
module Metrics = Kamino_obs.Metrics

type kind = Variant.kind =
  | No_logging
  | Undo_logging
  | Cow
  | Kamino_simple
  | Kamino_dynamic of { alpha : float; policy : Backup.policy }
  | Intent_only

let kind_name = Variant.kind_name

type config = Variant.config = {
  heap_bytes : int;
  log_slots : int;
  max_tx_entries : int;
  data_log_bytes : int;
  cost : Cost_model.t;
  crash_mode : Region.crash_mode;
  flush_per_intent : bool;
  global_pending : bool;
  coalesce_writes : bool;
}

let default_config = Variant.default_config

type error = Variant.error =
  | Tx_already_active
  | Tx_finished
  | Tx_not_active
  | Intent_log_exhausted of string
  | Missing_intent of { off : int; len : int }
  | Abort_unsupported of kind
  | Component_missing of string
  | Unsupported of string
  | Stale_reservation of string
  | Unresolved_record of int

exception Error = Variant.Error

type nonrec t = t

type nonrec tx = tx

let tx_engine tx = tx.owner

let tx_id tx = tx.id

let last_tx_id t = t.next_tx_id - 1

let kind t = t.e_kind

let config t = t.e_config

let heap t = t.heap

let clock t = t.clk

let now t = Clock.now t.clk

let set_clock t c =
  t.clk <- c;
  Array.iter (fun r -> Region.set_clock r c) t.all_regions

let main_region t = t.main

let backup t = t.bkp

let applier t = t.appl

let intent_log t = t.ilog

let locks t = t.locks

let root t = Heap.root t.heap

let main_counters = Variant.main_counters

let carry_ns t = Array.fold_left (fun acc r -> acc +. Region.carry_ns r) 0.0 t.all_regions

let storage_bytes = Variant.storage_bytes

(* --- Construction ------------------------------------------------------- *)

let strategy_of_kind = function
  | No_logging -> Variant.no_logging
  | Undo_logging -> Undo_variant.ops
  | Cow -> Cow_variant.ops
  | Kamino_simple -> Kamino_variant.simple
  | Kamino_dynamic _ -> Kamino_variant.dynamic
  | Intent_only -> Intent_variant.ops

let create ?(config = default_config) ?(obs = Obs.null) ?(obs_track = 1) ~kind
    ~seed () =
  let rng = Rng.create seed in
  let clk = Clock.create () in
  let mk size = Region.create ~cost:config.cost ~crash_mode:config.crash_mode
      ~rng:(Rng.split rng) ~clock:clk ~size ()
  in
  let main = Region.create ~cost:config.cost ~crash_mode:config.crash_mode
      ~rng:(Rng.split rng) ~clock:clk ~size:config.heap_bytes ()
  in
  let heap = Heap.format main in
  let ilog_region, ilog =
    if uses_intent_log kind then begin
      let size =
        Intent_log.required_size ~max_user_threads:8
          ~max_tx_entries:config.max_tx_entries ~n_slots:config.log_slots
      in
      let r = mk size in
      (Some r, Some (Intent_log.format r ~max_user_threads:8
                       ~max_tx_entries:config.max_tx_entries ~n_slots:config.log_slots))
    end
    else (None, None)
  in
  let dlog_region, dlog =
    if uses_data_log kind then begin
      let r = mk (Data_log.required_size ~arena_bytes:config.data_log_bytes) in
      (Some r, Some (Data_log.format r))
    end
    else (None, None)
  in
  let bkp, backup_regions =
    match kind with
    | Kamino_simple ->
        let r = mk config.heap_bytes in
        let b = Backup.create_full r in
        Backup.initialize_full b ~main;
        (Some b, [ r ])
    | Kamino_dynamic { alpha; policy } ->
        let slots_bytes, capacity = Backup.dynamic_sizing ~alpha ~heap_bytes:config.heap_bytes in
        let slots = mk slots_bytes in
        let table = mk (Phash.required_size ~capacity) in
        (Some (Backup.create_dynamic ~slots ~table ~capacity ~policy), [ slots; table ])
    | No_logging | Undo_logging | Cow | Intent_only -> (None, [])
  in
  let all_regions =
    Array.of_list
      ((main :: Option.to_list ilog_region) @ Option.to_list dlog_region @ backup_regions)
  in
  let reg = Metrics.create () in
  let t =
    {
      e_kind = kind;
      strat = strategy_of_kind kind;
      e_config = config;
      main;
      heap;
      ilog_region;
      ilog;
      dlog_region;
      dlog;
      bkp;
      locks = Locks.create ();
      appl = None;
      clk;
      rng;
      next_tx_id = 1;
      active = None;
      unresolved = None;
      alloc_release = 0;
      tx_claims = [];
      e_obs = obs;
      obs_base = obs_track;
      reg;
      m_committed = Metrics.counter reg "engine.committed";
      m_aborted = Metrics.counter reg "engine.aborted";
      m_ranges_coalesced = Metrics.counter reg "engine.ranges_coalesced";
      m_bytes_saved = Metrics.counter reg "engine.bytes_saved";
      h_dep_wait = Metrics.hist reg "engine.dependent_wait_ns";
      h_applier_lag = Metrics.hist reg "applier.lag_ns";
      h_queue_depth = Metrics.hist reg "applier.queue_depth";
      m_snapshot_hits = Metrics.counter reg "snapshot.hits";
      m_snapshot_fallbacks = Metrics.counter reg "snapshot.fallbacks";
      h_snapshot_staleness = Metrics.hist reg "engine.snapshot_staleness_ns";
      last_commit_ns = 0;
      last_write_keys = [];
      all_regions;
      ws = Array.init 64 (fun _ -> fresh_irec ());
      ws_n = 0;
      ws_cow_n = 0;
      runs = Array.make (3 * 64) 0;
    }
  in
  (match kind with
  | Kamino_simple | Kamino_dynamic _ -> t.appl <- Some (make_applier t)
  | No_logging | Undo_logging | Cow | Intent_only -> ());
  if Obs.enabled obs then begin
    Obs.name_track obs obs_track "tx";
    Obs.name_track obs (obs_track + 1) "applier";
    Obs.name_track obs (obs_track + 2) "nvm";
    Array.iter (fun r -> Region.set_obs r ~track:(obs_track + 2) obs) all_regions
  end;
  set_clock t clk;
  t

(* --- Transactions ------------------------------------------------------- *)

let begin_tx t =
  (match t.active with
  | Some _ -> error Tx_already_active
  | None -> ());
  (match t.unresolved with
  | Some id -> error (Unresolved_record id)
  | None -> ());
  let id = t.next_tx_id in
  t.next_tx_id <- id + 1;
  t.tx_claims <- [];
  let t_begin = Clock.now t.clk in
  Region.charge_tx_begin t.main;
  t.strat.v_begin t ~tx_id:id;
  (* Recycle the engine-owned scratch. Clearing here (not at finish) also
     covers a transaction torn down by [crash], which never finishes.
     Dropping stale [cow] references lets the data-log entries go. *)
  for i = 0 to t.ws_n - 1 do
    t.ws.(i).cow <- None
  done;
  t.ws_n <- 0;
  t.ws_cow_n <- 0;
  let tx =
    {
      owner = t;
      id;
      t_begin;
      slot = None;  (* claimed lazily at the first write intent *)
      lock_keys = [];
      lock_entries = [];
      read_entries = [];
      needs_barrier = uses_data_log t.e_kind;
      prepared = false;
      finished = false;
    }
  in
  t.active <- Some tx;
  tx

(* Declare a write intent on an arbitrary byte range. [redirectable] selects
   CoW redirection; fresh and freed extents and the root pointer are
   always edited in place. [lock_key] defaults to the range start;
   field-granular intents lock the owning object, log only the field. *)
let declare ?lock_key tx ~off ~len ~redirectable =
  active_tx tx;
  let lock_key = Option.value lock_key ~default:off in
  if ws_find_off tx.owner off < 0 then begin
    let t = tx.owner in
    let cm = cost t in
    let le = Locks.entry_of t.locks lock_key in
    let now0 = Clock.now t.clk in
    (* Cause attribution, read before acquiring: the wait is {e dependent}
       (the paper's backup catch-up wait) when the lock's previous writer
       has a committed-but-unapplied task — the same predicate [pinned]
       uses. Anything else is plain contention. *)
    let dependent =
      Obs.enabled t.e_obs
      &&
      match t.appl with
      | Some appl -> Locks.last_writer_task_e le > Applier.applied_through appl
      | None -> false
    in
    let held_at =
      Locks.acquire_write_e t.locks le ~now:now0 ~cost_ns:cm.Cost_model.lock_ns
    in
    (if Obs.enabled t.e_obs then
       let waited = held_at - now0 - int_of_float cm.Cost_model.lock_ns in
       if waited > 0 then begin
         if dependent then Metrics.observe t.h_dep_wait waited;
         Obs.emit t.e_obs ~kind:Obs.k_lock_wait ~track:t.obs_base ~ts:now0
           ~dur:waited ~a:lock_key
           ~b:(if dependent then 1 else 0)
           ~c:tx.id
       end);
    ignore (Clock.advance_to t.clk held_at);
    let cow = t.strat.v_declare t tx ~le ~off ~len ~redirectable in
    ignore (ws_push t ~off ~len ~key:lock_key ~cow);
    if not (List.mem lock_key tx.lock_keys) then begin
      tx.lock_keys <- lock_key :: tx.lock_keys;
      tx.lock_entries <- le :: tx.lock_entries
    end;
    tx.needs_barrier <- true
  end

let add tx p =
  let t = tx.owner in
  if not (Heap.is_allocated t.heap p) then
    invalid_arg (Printf.sprintf "Engine.add: %d is not an allocated object" p);
  let { Heap.off; len } = Heap.extent t.heap p in
  declare tx ~off ~len ~redirectable:true

let add_range tx { Heap.off; len } = declare tx ~off ~len ~redirectable:false

let add_field tx p field len =
  let t = tx.owner in
  if not (Heap.is_allocated t.heap p) then
    invalid_arg (Printf.sprintf "Engine.add_field: %d is not an allocated object" p);
  let extent = Heap.extent t.heap p in
  if field < 0 || p + field + len > extent.Heap.off + extent.Heap.len then
    invalid_arg "Engine.add_field: range outside the object";
  if t.strat.v_object_granular then
    (* The dynamic backup tracks copies per object (as in the paper, whose
       log entries are object addresses): a sub-object copy would go stale
       when another transaction updates the object through a whole-extent
       intent. Intents are 24 bytes either way. *)
    add tx p
  else if
    (* If the whole object is already declared, the field is covered. *)
    ws_find_off t extent.Heap.off < 0
  then declare tx ~lock_key:extent.Heap.off ~off:(p + field) ~len ~redirectable:true

let read_lock tx p =
  active_tx tx;
  let t = tx.owner in
  let { Heap.off; len = _ } = Heap.extent t.heap p in
  let cm = cost t in
  let e = Locks.entry_of t.locks off in
  let now0 = Clock.now t.clk in
  let dependent =
    Obs.enabled t.e_obs
    &&
    match t.appl with
    | Some appl -> Locks.last_writer_task_e e > Applier.applied_through appl
    | None -> false
  in
  let held_at =
    Locks.acquire_read_e t.locks e ~now:now0 ~cost_ns:cm.Cost_model.lock_ns
  in
  (if Obs.enabled t.e_obs then
     let waited = held_at - now0 - int_of_float cm.Cost_model.lock_ns in
     if waited > 0 then begin
       if dependent then Metrics.observe t.h_dep_wait waited;
       Obs.emit t.e_obs ~kind:Obs.k_lock_wait ~track:t.obs_base ~ts:now0
         ~dur:waited ~a:off
         ~b:(if dependent then 1 else 0)
         ~c:tx.id
     end);
  ignore (Clock.advance_to t.clk held_at);
  tx.read_entries <- e :: tx.read_entries

(* Fresh and freed extents are edited in place, never redirected. *)
let rec declare_ranges tx = function
  | [] -> ()
  | { Heap.off; len } :: rest ->
      declare tx ~off ~len ~redirectable:false;
      declare_ranges tx rest

(* A publication stores its whole extents (header words, zeroed
   payload), which are exactly its reservation's ranges. *)
let rec mark_ranges t = function
  | [] -> ()
  | { Heap.off; len } :: rest ->
      mark_written t off len;
      mark_ranges t rest

(* Reserve, then publish (DESIGN.md §26). A reservation is the
   allocator's search and its [alloc_ns]: it claims objects from the
   heap's volatile state, stores nothing and takes no transaction lock,
   so it can run before the transaction declares the object that will
   point at the result. The search runs under the allocator's mutex
   ([alloc_release]), which the last reservation held for its search
   and a transaction that changed the volatile state at its end (it
   gave a reservation back, or its frees joined the free lists) held
   until then. *)
type reservation = { r_tx : tx; r_heap : Heap.reservation }

let reserve tx sizes =
  active_tx tx;
  let t = tx.owner in
  List.iter (fun size -> ignore (Heap.class_of_size size)) sizes;
  let now0 = Clock.now t.clk in
  if t.alloc_release > now0 then begin
    let held_at = Locks.wait_until t.locks ~now:now0 t.alloc_release in
    if Obs.enabled t.e_obs then
      (* The mutex is no NVM word: its waits carry key -1, and contention. *)
      Obs.emit t.e_obs ~kind:Obs.k_lock_wait ~track:t.obs_base ~ts:now0
        ~dur:(held_at - now0) ~a:(-1) ~b:0 ~c:tx.id;
    ignore (Clock.advance_to t.clk held_at)
  end;
  let r = Heap.reserve t.heap sizes in
  t.alloc_release <- Clock.now t.clk;
  t.tx_claims <- r :: t.tx_claims;
  { r_tx = tx; r_heap = r }

(* A transaction hands the allocator's volatile state a change when it
   ends: an abort gives back what it reserved, a commit gives back what
   it reserved and did not publish and adds what it freed and did not
   reuse. A later search starts after that. *)
let settle_allocator t ~aborted =
  if
    if aborted then t.tx_claims <> []
    else
      Heap.pending_frees t.heap || List.exists (fun r -> not r.Heap.published) t.tx_claims
  then t.alloc_release <- max t.alloc_release (Clock.now t.clk)

(* The change itself, once the transaction's outcome is known. A
   roll-back gives every reservation back, newest first, and drops the
   frees. Otherwise the published ones stay, the rest go back, and the
   frees join the free extents. *)
let settle_heap t ~rolled_back =
  if t.tx_claims <> [] then begin
    List.iter
      (fun r -> if rolled_back || not r.Heap.published then Heap.give_back t.heap r)
      t.tx_claims;
    t.tx_claims <- []
  end;
  Heap.settle t.heap ~rolled_back

(* A reservation that was already given back, or published, could hand
   an object out twice. *)
let check_fresh tx r =
  if r.r_tx != tx then
    error
      (Stale_reservation
         (Printf.sprintf "made by transaction %d, published by %d" r.r_tx.id tx.id))
  else if tx.finished then
    error (Stale_reservation (Printf.sprintf "transaction %d finished" tx.id))
  else if r.r_heap.Heap.published then
    error (Stale_reservation (Printf.sprintf "transaction %d published it already" tx.id))

(* Declare the claimed extents, cover them and whatever the transaction
   declared before with one barrier, then store their headers. *)
let publish_claim tx r =
  let t = tx.owner in
  declare_ranges tx r.Heap.ranges;
  do_barrier tx;
  Heap.publish t.heap r;
  mark_ranges t r.Heap.ranges;
  r.Heap.ptrs

let publish tx r =
  check_fresh tx r;
  active_tx tx;
  publish_claim tx r.r_heap

let alloc_many tx sizes = publish tx (reserve tx sizes)

let alloc tx size =
  match alloc_many tx [ size ] with [ p ] -> p | _ -> assert false

(* Declaring a free ahead declares the extent, so the [free] itself adds
   no intent and no barrier. *)
let declare_free tx p =
  active_tx tx;
  let t = tx.owner in
  if not (Heap.is_allocated t.heap p) then
    invalid_arg (Printf.sprintf "Engine.declare_free: %d is not an allocated object" p);
  add_range tx (Heap.extent t.heap p)

(* [Heap.free] stores only the header's flags word, at [p - 8]. The
   transaction's next claim of the class reuses the extent: it already
   declared and locks it, so the reuse adds no intent and no barrier. *)
let free tx p =
  active_tx tx;
  let t = tx.owner in
  if not (Heap.is_allocated t.heap p) then
    invalid_arg (Printf.sprintf "Engine.free: %d is not an allocated object" p);
  let extent = Heap.extent t.heap p in
  t.strat.v_pre_free t tx extent;
  add_range tx extent;
  do_barrier tx;
  Heap.free t.heap extent;
  mark_written t (p - 8) 8

(* An unpublished claim of fresh space under a published one cannot go
   back to the cursor, and its zero header would end the open walk early:
   before a commit, the transaction publishes and frees it. *)
let rec publish_stranded tx above = function
  | [] -> ()
  | r :: older ->
      let bumped = r.Heap.top > r.Heap.base in
      if above && bumped && not r.Heap.published then List.iter (free tx) (publish_claim tx r);
      publish_stranded tx (above || (bumped && r.Heap.published)) older

(* --- Data access -------------------------------------------------------- *)

(* Each accessor below resolves the covering intent by index and branches
   on its CoW redirection inline — a generic closure-threaded [write_via]/
   [read_via] formulation dominated per-access allocation on the hot read
   path (every B+Tree key comparison lands here). [-1] means "no covering
   intent": reads fall through to the main heap, writes are an intent
   violation. *)

(* Resolving the covering intent also marks the written lines dirty in it. *)
let check_write_idx tx abs len =
  let t = tx.owner in
  let i = covering_idx t abs len in
  if i >= 0 then mark_lines (Array.unsafe_get t.ws i) abs len
  else error (Missing_intent { off = abs; len });
  i

let cow_of t i = if i < 0 then None else t.ws.(i).cow

let write_int64 tx p field v =
  active_tx tx;
  let t = tx.owner in
  let abs = p + field in
  let i = check_write_idx tx abs 8 in
  do_barrier tx;
  match cow_of t i with
  | None -> Region.write_int64 t.main abs v
  | Some entry ->
      Data_log.payload_write_int64 (the_dlog t) entry (abs - t.ws.(i).r_off) v

let write_int tx p field v =
  active_tx tx;
  let t = tx.owner in
  let abs = p + field in
  let i = check_write_idx tx abs 8 in
  do_barrier tx;
  match cow_of t i with
  | None -> Region.write_int t.main abs v
  | Some entry ->
      Data_log.payload_write_int (the_dlog t) entry (abs - t.ws.(i).r_off) v

let write_bytes tx p field b =
  active_tx tx;
  let t = tx.owner in
  let abs = p + field in
  let i = check_write_idx tx abs (Bytes.length b) in
  do_barrier tx;
  match cow_of t i with
  | None -> Region.write_bytes t.main abs b
  | Some entry ->
      Data_log.payload_write_bytes (the_dlog t) entry (abs - t.ws.(i).r_off) b

let write_string tx p field s =
  active_tx tx;
  let t = tx.owner in
  let abs = p + field in
  let i = check_write_idx tx abs (String.length s) in
  do_barrier tx;
  match cow_of t i with
  | None -> Region.write_string t.main abs s
  | Some entry ->
      Data_log.payload_write_string (the_dlog t) entry (abs - t.ws.(i).r_off) s

let write_byte tx p field v =
  active_tx tx;
  let t = tx.owner in
  let abs = p + field in
  let i = check_write_idx tx abs 1 in
  do_barrier tx;
  match cow_of t i with
  | None -> Region.write_byte t.main abs v
  | Some entry ->
      Data_log.payload_write_byte (the_dlog t) entry (abs - t.ws.(i).r_off) v

(* Reads consult the write set only to follow CoW redirections; when the
   transaction has none ([ws_cow_n] = 0 — always, outside the CoW engine),
   they go straight to the main heap. *)

let read_int64 tx p field =
  active_tx tx;
  let t = tx.owner in
  let abs = p + field in
  if t.ws_cow_n = 0 then Region.read_int64 t.main abs
  else
    let i = covering_idx t abs 8 in
    match cow_of t i with
    | None -> Region.read_int64 t.main abs
    | Some entry ->
        Data_log.payload_read_int64 (the_dlog t) entry (abs - t.ws.(i).r_off)

let read_int tx p field =
  active_tx tx;
  let t = tx.owner in
  let abs = p + field in
  if t.ws_cow_n = 0 then Region.read_int t.main abs
  else
    let i = covering_idx t abs 8 in
    match cow_of t i with
    | None -> Region.read_int t.main abs
    | Some entry ->
        Data_log.payload_read_int (the_dlog t) entry (abs - t.ws.(i).r_off)

let read_bytes tx p field len =
  active_tx tx;
  let t = tx.owner in
  let abs = p + field in
  if t.ws_cow_n = 0 then Region.read_bytes t.main abs len
  else
    let i = covering_idx t abs len in
    match cow_of t i with
    | None -> Region.read_bytes t.main abs len
    | Some entry ->
        Data_log.payload_read_bytes (the_dlog t) entry (abs - t.ws.(i).r_off) len

(* Where byte [x] lives for the transaction: in the working copy of
   intent [i] under CoW, in the main heap otherwise. *)
let locate t i x =
  match cow_of t i with
  | None -> (t.main, x)
  | Some entry ->
      (Option.get t.dlog_region, entry.Data_log.payload_off + (x - t.ws.(i).r_off))

(* The newest intent overlapping [lo, hi) when it covers the whole run,
   [-1] when none overlaps it, [-2] when the run straddles the edge of
   one: then bytes of the run live in different places. *)
let rec run_idx ws lo hi i =
  if i < 0 then -1
  else
    let r = Array.unsafe_get ws i in
    if r.r_off + r.r_len <= lo || hi <= r.r_off then run_idx ws lo hi (i - 1)
    else if r.r_off <= lo && hi <= r.r_off + r.r_len then i
    else -2

(* End of the piece that starts at [x] and lives where intent [i] (or the
   main heap, at [-1]) puts it: the first start of a newer intent past [x]
   cuts it. *)
let rec piece_end ws x e j n =
  if j >= n then e
  else
    let o = (Array.unsafe_get ws j).r_off in
    piece_end ws x (if o > x && o < e then o else e) (j + 1) n

(* Bytes [lo, hi) as the transaction sees them, one load per piece that
   lives in one place. *)
let read_pieces t lo hi =
  let buf = Bytes.create (hi - lo) in
  let rec fill x =
    if x < hi then begin
      let i = covering_idx t x 1 in
      let e = if i < 0 then hi else min hi (t.ws.(i).r_off + t.ws.(i).r_len) in
      let e = piece_end t.ws x e (i + 1) t.ws_n in
      let reg, off = locate t i x in
      Region.read_into reg off buf (x - lo) (e - x);
      fill e
    end
  in
  fill lo;
  Bytes.unsafe_to_string buf

let read_prefixed tx p field ~max =
  active_tx tx;
  let t = tx.owner in
  let abs = p + field in
  if t.ws_cow_n = 0 then Region.read_prefixed t.main abs ~max
  else
    match run_idx t.ws abs (abs + 8 + max) (t.ws_n - 1) with
    | -2 ->
        (* The record's largest extent straddles a working copy (a
           field-granular [add_field]): the length word, then each piece
           of the bytes, from where it lives. *)
        let len = Int64.to_int (String.get_int64_le (read_pieces t abs (abs + 8)) 0) in
        if len < 0 || len > max then
          Region.corrupt ~structure:"record" ~off:abs "length %d outside [0, %d]" len max;
        read_pieces t (abs + 8) (abs + 8 + len)
    | i ->
        let reg, off = locate t i abs in
        Region.read_prefixed reg off ~max

let read_byte tx p field =
  active_tx tx;
  let t = tx.owner in
  let abs = p + field in
  if t.ws_cow_n = 0 then Region.read_byte t.main abs
  else
    let i = covering_idx t abs 1 in
    match cow_of t i with
    | None -> Region.read_byte t.main abs
    | Some entry ->
        Data_log.payload_read_byte (the_dlog t) entry (abs - t.ws.(i).r_off)

(* --- Snapshot reads (MVCC-lite) ------------------------------------------ *)

(* A read-only view over the full backup region at the applier's published
   watermark. The backup mirrors the main heap at identical offsets and is
   written only by the applier (in ascending task-id order) and by
   recovery, so at any instant it holds exactly the heap state with
   committed tasks [1..applied_through] rolled forward: a transactionally
   consistent, slightly stale image. Readers therefore take {e no locks},
   never consult the intent log, and never join the dependent-wait class —
   the paper's storage overhead repurposed as read capacity. Loads charge
   whatever clock the backup region currently carries (the reader's, under
   the driver's per-client multiplexing), never the writer's. *)
type snapshot = { s_owner : t; s_reg : Region.t }

let snapshot_watermark t =
  match (t.bkp, t.appl) with
  | Some b, Some a when Backup.is_full b -> Some (Applier.watermark a)
  | _ -> None

let read_tx ?clock t f =
  let serve reg a =
    let snap = { s_owner = t; s_reg = reg } in
    let run () = f snap in
    let result =
      match clock with
      | None -> run ()
      | Some c ->
          (* Dedicated reader clock: swap it in on the backup region only,
             so concurrent writers (whose clock stays on every other
             region) observe zero cost from the read. *)
          let saved = Region.clock reg in
          Region.set_clock reg c;
          Fun.protect ~finally:(fun () -> Region.set_clock reg saved) run
    in
    match result with
    | Some v ->
        Metrics.incr t.m_snapshot_hits;
        let _, wm_ns = Applier.watermark a in
        Metrics.observe t.h_snapshot_staleness (max 0 (t.last_commit_ns - wm_ns));
        Some v
    | None ->
        Metrics.incr t.m_snapshot_fallbacks;
        None
  in
  match (t.bkp, t.appl) with
  | Some b, Some a when Backup.is_full b -> (
      match Backup.full_region b with
      | Some reg -> serve reg a
      | None ->
          Metrics.incr t.m_snapshot_fallbacks;
          None)
  | _ ->
      (* Dynamic backups are object-keyed (no consistent whole-heap image)
         and the other kinds have no backup at all: the caller falls back
         to the locked read path behind the same API. *)
      Metrics.incr t.m_snapshot_fallbacks;
      None

let snapshot_read_int64 s p field = Region.read_int64 s.s_reg (p + field)

let snapshot_read_int s p field = Region.read_int s.s_reg (p + field)

let snapshot_read_prefixed s p field ~max = Region.read_prefixed s.s_reg (p + field) ~max

(* The root pointer as the snapshot saw it: the entry point for traversing
   persistent structures inside the backup image. *)
let snapshot_root s =
  let { Heap.off; len = _ } = Heap.root_range s.s_owner.heap in
  Region.read_int s.s_reg off

let peek_int64 t p field = Region.read_int64 t.main (p + field)

let peek_int t p field = Region.read_int t.main (p + field)

let peek_bytes t p field len = Region.read_bytes t.main (p + field) len

let peek_string t p field len = Region.read_string t.main (p + field) len

let peek_prefixed t p field ~max = Region.read_prefixed t.main (p + field) ~max

let peek_run t p field len = Region.charge_load t.main (p + field) len

(* Cost-free committed read for observability walks (B+Tree depth/occupancy
   gauges): no simulated load is charged, so gauge collection cannot drift
   the bit-identity oracles. Never use on a data path. *)
let probe_int t p field = Region.peek_int t.main (p + field)

let set_root tx p =
  active_tx tx;
  let t = tx.owner in
  let root = Heap.root_range t.heap in
  add_range tx root;
  do_barrier tx;
  Heap.set_root t.heap p;
  mark_written t root.Heap.off root.Heap.len

(* The unmerged dirty-line runs of the write set, in declaration order:
   what a full backup would propagate if [tx] committed now, before
   coalescing. *)
let dirty_ranges tx =
  active_tx tx;
  let t = tx.owner in
  let n = ref 0 in
  for i = 0 to t.ws_n - 1 do
    n := emit_runs t t.ws.(i) !n
  done;
  List.init !n (fun j -> { Heap.off = t.runs.(3 * j); len = t.runs.((3 * j) + 1) })

(* --- Commit and abort --------------------------------------------------- *)

let emit_commit_span t tx =
  Metrics.incr t.m_committed;
  (* Reading the clock charges nothing; the stamp feeds snapshot-staleness
     accounting ([read_tx]) without perturbing the commit path. *)
  t.last_commit_ns <- Clock.now t.clk;
  if Obs.enabled t.e_obs then
    let nowc = Clock.now t.clk in
    Obs.emit t.e_obs ~kind:Obs.k_commit ~track:t.obs_base ~ts:tx.t_begin
      ~dur:(nowc - tx.t_begin) ~a:tx.id ~b:t.ws_n ~c:0

let commit tx =
  active_tx tx;
  let t = tx.owner in
  if tx.prepared then error (Unsupported "commit after prepare (use commit_prepared)");
  publish_stranded tx false t.tx_claims;
  t.strat.v_commit t tx;
  settle_allocator t ~aborted:false;
  settle_heap t ~rolled_back:false;
  emit_commit_span t tx;
  finish tx

let abort tx =
  active_tx tx;
  let t = tx.owner in
  (* A kind that cannot roll back keeps what it published, as a commit
     does, so it publishes a stranded claim first, while it still can. *)
  (match t.e_kind with
  | No_logging | Intent_only -> publish_stranded tx false t.tx_claims
  | Kamino_simple | Kamino_dynamic _ | Undo_logging | Cow -> ());
  settle_allocator t ~aborted:true;
  (match t.strat.v_abort t tx with
  | () -> settle_heap t ~rolled_back:true
  | exception (Error (Abort_unsupported _) as e) ->
      settle_heap t ~rolled_back:false;
      raise e);
  Metrics.incr t.m_aborted;
  (if Obs.enabled t.e_obs then
     let nowc = Clock.now t.clk in
     Obs.emit t.e_obs ~kind:Obs.k_abort ~track:t.obs_base ~ts:tx.t_begin
       ~dur:(nowc - tx.t_begin) ~a:tx.id ~b:0 ~c:0);
  finish tx

(* Two-phase commit for the sharded façade: [prepare] makes the write set
   and its intent record durable while the record still says [Running];
   [commit_prepared] is the decision half. The shard coordinator writes
   its persistent cross-shard marker between the two (DESIGN.md par11). *)

let prepare tx =
  active_tx tx;
  if tx.prepared then error (Unsupported "prepare called twice");
  let t = tx.owner in
  publish_stranded tx false t.tx_claims;
  t.strat.v_prepare t tx;
  tx.prepared <- true

let commit_prepared tx =
  active_tx tx;
  if not tx.prepared then error (Unsupported "commit_prepared without prepare");
  let t = tx.owner in
  t.strat.v_commit_prepared t tx;
  settle_allocator t ~aborted:false;
  settle_heap t ~rolled_back:false;
  emit_commit_span t tx;
  finish tx

let with_tx t f =
  let tx = begin_tx t in
  match f tx with
  | v ->
      commit tx;
      v
  | exception exn ->
      let bt = Printexc.get_raw_backtrace () in
      (* A kind that cannot roll back has already finished the handle;
         the caller's exception is the one to see. *)
      (if not tx.finished then
         try abort tx with Error (Abort_unsupported _) -> ());
      Printexc.raise_with_backtrace exn bt

(* --- Crash and recovery ------------------------------------------------- *)

let crash t =
  (match t.active with
  | Some tx ->
      tx.finished <- true;
      t.active <- None
  | None -> ());
  Array.iter Region.crash t.all_regions

let recover ?(promote_running = fun _ -> false) t =
  t.locks <- Locks.create ();
  t.alloc_release <- 0;
  t.active <- None;
  t.unresolved <- None;
  t.strat.v_recover t ~promote_running;
  (* The rebuild walks the final image, after the roll-back or forward. *)
  t.heap <- Heap.open_existing t.main

type durable_outcome = Committed | Aborted | Absent

let durable_outcome t tx_id =
  match t.e_kind with
  | Kamino_simple | Kamino_dynamic _ ->
      let ilog = Intent_log.open_existing (Option.get t.ilog_region) in
      let outcome = ref Absent in
      Intent_log.iter_records ilog (fun slot id state intents ->
          if id = tx_id then
            outcome :=
              match state with
              | Intent_log.Committed when Intent_log.commit_holds ilog slot ~main:t.main intents
                ->
                  Committed
              | _ -> Aborted);
      !outcome
  | k -> error (Unsupported ("durable_outcome (" ^ kind_name k ^ ")"))

let drain_backup = Variant.drain_backup

let verify_backup = Variant.verify_backup

let last_write_keys t = t.last_write_keys

let resolve_from_peer t ~peer =
  let ilog = the_ilog t in
  let slots = ref [] in
  Intent_log.iter_records ilog (fun slot _ _ intents -> slots := (slot, intents) :: !slots);
  List.iter
    (fun (slot, intents) ->
      List.iter
        (fun { Intent_log.off; len } ->
          Region.copy_between ~src:peer ~src_off:off ~dst:t.main ~dst_off:off ~len;
          Region.persist t.main off len)
        intents;
      Intent_log.release ilog slot)
    (List.rev !slots);
  t.heap <- Heap.open_existing t.main;
  t.unresolved <- None

(* Promote a chain replica to head: build a full local backup from the
   current heap (what a newly promoted head does in §5.2) and start an
   applier. *)
let promote_to_kamino t =
  (match t.e_kind with
  | Intent_only -> ()
  | _ -> invalid_arg "Engine.promote_to_kamino: only replicas can be promoted");
  let r =
    Region.create ~cost:t.e_config.cost ~crash_mode:t.e_config.crash_mode
      ~rng:(Rng.split t.rng) ~clock:t.clk ~size:t.e_config.heap_bytes ()
  in
  let b = Backup.create_full r in
  Backup.initialize_full b ~main:t.main;
  t.bkp <- Some b;
  t.all_regions <- Array.append t.all_regions [| r |];
  t.e_kind <- Kamino_simple;
  t.strat <- Kamino_variant.simple;
  t.appl <- Some (make_applier t);
  if Obs.enabled t.e_obs then Region.set_obs r ~track:(t.obs_base + 2) t.e_obs;
  set_clock t t.clk

(* --- Metrics ------------------------------------------------------------ *)

type metrics = {
  committed : int;
  aborted : int;
  critical_path_copies : int;
  backup_hits : int;
  backup_misses : int;
  backup_evictions : int;
  applier_tasks : int;
  tasks_batched : int;
  ranges_coalesced : int;
  bytes_saved : int;
  lock_wait_ns : int;
  lock_wait_events : int;
  storage_bytes : int;
  snapshot_hits : int;
  snapshot_fallbacks : int;
}

let metrics (t : t) =
  {
    committed = Metrics.value t.m_committed;
    aborted = Metrics.value t.m_aborted;
    critical_path_copies =
      (match t.dlog with Some d -> Data_log.entries_created d | None -> 0);
    backup_hits = (match t.bkp with Some b -> Backup.hits b | None -> 0);
    backup_misses = (match t.bkp with Some b -> Backup.misses b | None -> 0);
    backup_evictions = (match t.bkp with Some b -> Backup.evictions b | None -> 0);
    applier_tasks = (match t.appl with Some a -> Applier.tasks_applied a | None -> 0);
    tasks_batched = (match t.appl with Some a -> Applier.tasks_batched a | None -> 0);
    ranges_coalesced = Metrics.value t.m_ranges_coalesced;
    bytes_saved = Metrics.value t.m_bytes_saved;
    lock_wait_ns = Locks.waits t.locks;
    lock_wait_events = Locks.wait_events t.locks;
    storage_bytes = storage_bytes t;
    snapshot_hits = Metrics.value t.m_snapshot_hits;
    snapshot_fallbacks = Metrics.value t.m_snapshot_fallbacks;
  }

let obs t = t.e_obs

(* Whole-engine fingerprint for determinism oracles: simulated instant,
   the metrics record, and every region's NVM counters and content
   digests, hashed together. Built exclusively from cost-free reads
   ([Region.digest], counter loads), so taking a fingerprint cannot move
   the execution it observes — two runs are bit-equivalent iff their
   fingerprints match. *)
let fingerprint t =
  let b = Buffer.create 512 in
  Buffer.add_string b (Printf.sprintf "now=%d;" (Clock.now t.clk));
  let m = metrics t in
  Buffer.add_string b
    (Printf.sprintf "m=%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d;" m.committed
       m.aborted m.critical_path_copies m.backup_hits m.backup_misses
       m.backup_evictions m.applier_tasks m.tasks_batched m.ranges_coalesced
       m.bytes_saved m.lock_wait_ns m.lock_wait_events m.storage_bytes
       m.snapshot_hits m.snapshot_fallbacks);
  Array.iter
    (fun r ->
      let c = Region.counters r in
      Buffer.add_string b
        (Printf.sprintf "r=%d,%d,%d,%d,%d,%d,%d,%d,%s;" c.Region.stores
           c.Region.bytes_stored c.Region.loads c.Region.bytes_loaded
           c.Region.lines_flushed c.Region.fences c.Region.bytes_copied
           c.Region.crashes (Region.digest r)))
    t.all_regions;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The registry as a one-stop snapshot: the engine's own counters and
   histograms update live; numbers owned by subcomponents (backup, applier,
   locks) are synced in as gauges on each call so sinks see everything the
   old ad-hoc [metrics] record carried. *)
let registry t =
  let gauge name v = Metrics.set (Metrics.counter t.reg name) v in
  gauge "backup.hits" (match t.bkp with Some b -> Backup.hits b | None -> 0);
  gauge "backup.misses" (match t.bkp with Some b -> Backup.misses b | None -> 0);
  gauge "backup.evictions"
    (match t.bkp with Some b -> Backup.evictions b | None -> 0);
  gauge "applier.tasks"
    (match t.appl with Some a -> Applier.tasks_applied a | None -> 0);
  gauge "applier.tasks_batched"
    (match t.appl with Some a -> Applier.tasks_batched a | None -> 0);
  gauge "datalog.critical_path_copies"
    (match t.dlog with Some d -> Data_log.entries_created d | None -> 0);
  gauge "locks.wait_ns" (Locks.waits t.locks);
  gauge "locks.wait_events" (Locks.wait_events t.locks);
  gauge "storage.bytes" (storage_bytes t);
  (* Heap occupancy gauges are cost-free by construction: [Heap.stats]
     walks the heap through [Region.peek_*] — calling [registry] cannot
     drift the A/B words/op gate. *)
  let hs = Heap.stats t.heap in
  gauge "heap.segments" hs.Heap.segments_live;
  gauge "heap.live_bytes" hs.Heap.live_bytes;
  gauge "heap.live_objects" hs.Heap.live_objects;
  t.reg
