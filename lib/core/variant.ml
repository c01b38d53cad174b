(* Shared engine state, the typed error, the variant strategy signature,
   and the helper toolbox every variant builds its critical path from.

   The engine proper ({!Engine}) is the kind-independent shell: write-set
   tracking, lock acquisition, clock plumbing, data accessors, observability
   hooks. Everything a specific engine kind does differently — what happens
   on declare, how a commit is made durable, how an abort rolls back, what
   recovery replays — lives in a strategy record ({!type-ops}) implemented
   by one of the variant modules ({!Undo_variant}, {!Cow_variant},
   {!Kamino_variant}, {!Intent_variant}; the trivial {!no_logging} baseline
   lives here). The refactor is behavior-preserving by construction and by
   oracle: test_variant_oracle.ml pins the simulated nanoseconds, NVM
   counters and final heap images of every kind to the pre-split
   fingerprints. *)

module Region = Kamino_nvm.Region
module Cost_model = Kamino_nvm.Cost_model
module Clock = Kamino_sim.Clock
module Rng = Kamino_sim.Rng
module Heap = Kamino_heap.Heap
module Obs = Kamino_obs.Obs
module Metrics = Kamino_obs.Metrics

type kind =
  | No_logging
  | Undo_logging
  | Cow
  | Kamino_simple
  | Kamino_dynamic of { alpha : float; policy : Backup.policy }
  | Intent_only

let kind_name = function
  | No_logging -> "no-logging"
  | Undo_logging -> "undo-logging"
  | Cow -> "cow"
  | Kamino_simple -> "kamino-simple"
  | Intent_only -> "intent-only"
  | Kamino_dynamic { alpha; policy } ->
      Printf.sprintf "kamino-dynamic(%.0f%%%s)" (alpha *. 100.0)
        (match policy with Backup.Lru_policy -> "" | Backup.Fifo_policy -> ",fifo")

type config = {
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

let default_config =
  {
    heap_bytes = 16 * 1024 * 1024;
    log_slots = 256;
    max_tx_entries = 192;
    data_log_bytes = 8 * 1024 * 1024;
    cost = Cost_model.default;
    crash_mode = Region.Words_survive_randomly;
    flush_per_intent = false;
    global_pending = false;
    coalesce_writes = true;
  }

(* --- Typed errors -------------------------------------------------------- *)

type error =
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

exception Error of error

let error_message = function
  | Tx_already_active -> "a transaction is already active"
  | Tx_finished -> "transaction already finished"
  | Tx_not_active -> "transaction is not the active one"
  | Intent_log_exhausted where ->
      Printf.sprintf "intent log exhausted (%s)" where
  | Missing_intent { off; len } ->
      Printf.sprintf
        "write of %d bytes at %d is not covered by a declared intent (missing TX_ADD?)"
        len off
  | Abort_unsupported k ->
      Printf.sprintf "%s cannot roll back locally" (kind_name k)
  | Component_missing c -> Printf.sprintf "engine has no %s" c
  | Unsupported what -> Printf.sprintf "unsupported operation: %s" what
  | Stale_reservation why -> Printf.sprintf "stale reservation: %s" why
  | Unresolved_record id ->
      Printf.sprintf
        "transaction %d left its intent record running: resolve it from a peer first"
        id

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Engine.Error: " ^ error_message e)
    | _ -> None)

let error e = raise (Error e)

(* --- State --------------------------------------------------------------- *)

(* One declared write intent of the active transaction. [cow] is the CoW
   working copy when the range is redirected; [None] means the range is
   edited in place (always, for the non-CoW kinds). [r_key] is the write
   lock protecting the range (the owning object's extent for field-granular
   intents) — the coalescer uses it to decide which gaps are safe to fill.
   [r_dirty] is the volatile dirty-line mask of the range: bit [i] set means
   the transaction wrote into the [i]-th 64 B line the range overlaps,
   counted from the line holding [r_off]; {!whole_range} marks a range too
   wide for the mask (more than {!mask_lines} lines) that was written at
   all. A full backup propagates only the dirty lines (DESIGN.md par19). *)
type irec = {
  mutable r_off : int;
  mutable r_len : int;
  mutable r_key : int;
  mutable cow : Data_log.entry option;
  mutable r_dirty : int;
}

type t = {
  mutable e_kind : kind;
  mutable strat : ops;
  e_config : config;
  main : Region.t;
  mutable heap : Heap.t;
  ilog_region : Region.t option;
  mutable ilog : Intent_log.t option;
  dlog_region : Region.t option;
  mutable dlog : Data_log.t option;
  mutable bkp : Backup.t option;
  mutable locks : Locks.t;
  mutable appl : Applier.t option;
  mutable clk : Clock.t;
  rng : Rng.t;
  mutable next_tx_id : int;
  mutable active : tx option;
  (* An [Intent_only] record left [Running] over a possibly torn image,
     by a transaction that aborted after claiming its slot or found by
     [recover]: no transaction may begin until a peer resolves it. *)
  mutable unresolved : int option;
  (* When the allocator's volatile mutex was last released: the end of
     the last reservation's search, or of the last transaction that
     handed the allocator's volatile state a change at its end (DESIGN.md
     §26). Reset by recovery. *)
  mutable alloc_release : int;
  (* The active transaction's reservations, newest first: what its end
     hands the heap's volatile state, with the frees the heap keeps. *)
  mutable tx_claims : Heap.reservation list;
  (* Observability. The engine's bookkeeping counters live in a
     {!Kamino_obs.Metrics} registry; handles are resolved once here so
     every hot-path update stays a single field mutation. [e_obs] is
     [Obs.null] unless the caller opted in at [create]; every event site
     is a single enabled-check branch and never touches a clock, so
     tracing cannot move a simulated ns (DESIGN.md par10). [obs_base] is
     the engine's base Perfetto track: base = transactions, base+1 =
     applier timeline, base+2 = NVM write-backs. *)
  e_obs : Obs.t;
  obs_base : int;
  reg : Metrics.t;
  m_committed : Metrics.counter;
  m_aborted : Metrics.counter;
  m_ranges_coalesced : Metrics.counter;
  m_bytes_saved : Metrics.counter;
  h_dep_wait : Metrics.hist;
  h_applier_lag : Metrics.hist;
  h_queue_depth : Metrics.hist;
  m_snapshot_hits : Metrics.counter;
  m_snapshot_fallbacks : Metrics.counter;
  h_snapshot_staleness : Metrics.hist;
  (* Commit sim-ns of the most recent commit on this engine: the snapshot
     staleness a read observes is [last_commit_ns - watermark_ns]. Plain
     bookkeeping — stamped from the already-read clock on the commit path,
     so tracking it costs no NVM work and moves no simulated ns. *)
  mutable last_commit_ns : int;
  mutable last_write_keys : int list;
  mutable all_regions : Region.t array;
  (* Per-transaction scratch, owned by the engine and recycled across
     transactions (execution is serial at the data level, so at most one
     transaction uses it at a time). [ws.(0 .. ws_n-1)] is the write set in
     declaration order, its [irec]s pooled and overwritten in place; range
     starts are unique within it, and membership checks are linear scans
     (write sets are a handful of ranges — a hash table costs more in
     per-transaction clearing than the scans do). [ws_cow_n] counts entries
     carrying a CoW redirection: when zero — always, for every non-CoW
     engine kind — reads can go straight to the main heap without
     consulting the write set. The [tx] handle itself stays a small fresh
     record per transaction so stale handles from a finished transaction
     are still detected by [active_tx]. *)
  mutable ws : irec array;
  mutable ws_n : int;
  mutable ws_cow_n : int;
  (* Commit-time scratch of {!coalesce_write_set}: dirty-line runs as
     [(off, len, key)] triples, recycled across commits. *)
  mutable runs : int array;
}

and tx = {
  owner : t;
  id : int;
  t_begin : int;  (* client-clock ns at begin, for the commit/abort span *)
  mutable slot : Intent_log.slot option;
  mutable lock_keys : int list;  (* write-lock keys (object extents) *)
  mutable lock_entries : Locks.entry list;  (* handles for [lock_keys], same order *)
  mutable read_entries : Locks.entry list;
  mutable needs_barrier : bool;
  mutable prepared : bool;  (* two-phase: write set durable, outcome undecided *)
  mutable finished : bool;
}

(* The strategy: one record per engine kind, dispatched through [t.strat].
   Every function receives the full shared state; the engine shell has
   already done the kind-independent part of the operation (active-tx
   check, lock acquisition, scratch bookkeeping) when a hook runs. *)
and ops = {
  v_object_granular : bool;
      (* add_field declares the whole owning object (dynamic backups track
         copies per object, as in the paper) *)
  v_begin : t -> tx_id:int -> unit;
  v_claim_slot : t -> tx -> Intent_log.slot;
  v_declare :
    t ->
    tx ->
    le:Locks.entry ->
    off:int ->
    len:int ->
    redirectable:bool ->
    Data_log.entry option;
  v_pre_free : t -> tx -> Heap.range -> unit;
  v_barrier : t -> tx -> unit;
  v_commit : t -> tx -> unit;
  v_abort : t -> tx -> unit;
  v_prepare : t -> tx -> unit;
  v_commit_prepared : t -> tx -> unit;
  v_recover : t -> promote_running:(int -> bool) -> unit;
}

(* --- Typed component access --------------------------------------------- *)

let the_ilog t =
  match t.ilog with Some l -> l | None -> error (Component_missing "intent log")

let the_dlog t =
  match t.dlog with Some d -> d | None -> error (Component_missing "data log")

let the_bkp t =
  match t.bkp with Some b -> b | None -> error (Component_missing "backup")

let the_appl t =
  match t.appl with Some a -> a | None -> error (Component_missing "applier")

(* --- Shared helpers ------------------------------------------------------ *)

let cost t = t.e_config.cost

let uses_intent_log = function
  | Kamino_simple | Kamino_dynamic _ | Intent_only -> true
  | No_logging | Undo_logging | Cow -> false

let uses_data_log = function
  | Undo_logging | Cow -> true
  | No_logging | Kamino_simple | Kamino_dynamic _ | Intent_only -> false

let active_tx tx =
  if tx.finished then error Tx_finished;
  match tx.owner.active with
  | Some a when a == tx -> ()
  | _ -> error Tx_not_active

(* Index into the write set of the most recently declared intent covering
   [abs, abs+len), or [-1]. Scanning newest-first matches the old
   list-order semantics when ranges overlap; returning an index (the
   caller reads [ws.(i)]) keeps the per-access path allocation-free. *)
(* Top-level (not a local closure): a local [rec] would capture its free
   variables afresh on every access, allocating on the hottest path. *)
let rec covering_scan ws abs len i =
  if i < 0 then -1
  else
    let r = Array.unsafe_get ws i in
    if r.r_off <= abs && abs + len <= r.r_off + r.r_len then i
    else covering_scan ws abs len (i - 1)

let covering_idx t abs len = covering_scan t.ws abs len (t.ws_n - 1)

(* Index of the declared intent whose range starts exactly at [off], or
   [-1]. Range starts are unique within a transaction, so this is a set
   membership test. *)
let rec ws_off_scan ws off i =
  if i < 0 then -1
  else if (Array.unsafe_get ws i).r_off = off then i
  else ws_off_scan ws off (i - 1)

let ws_find_off t off = ws_off_scan t.ws off (t.ws_n - 1)

let fresh_irec () =
  { r_off = 0; r_len = 0; r_key = 0; cow = None; r_dirty = 0 }

(* Claim the next pooled [irec], growing the pool by doubling. Growth uses
   [Array.init] so every fresh slot is a distinct record — a shared filler
   would alias the pool. *)
let ws_push t ~off ~len ~key ~cow =
  (if t.ws_n = Array.length t.ws then
     let n = Array.length t.ws in
     t.ws <-
       Array.init (2 * n) (fun i ->
           if i < n then t.ws.(i)
           else fresh_irec ()));
  let r = t.ws.(t.ws_n) in
  t.ws_n <- t.ws_n + 1;
  r.r_off <- off;
  r.r_len <- len;
  r.r_key <- key;
  r.cow <- cow;
  r.r_dirty <- 0;
  if cow <> None then t.ws_cow_n <- t.ws_cow_n + 1;
  r

(* --- Dirty-line masks ----------------------------------------------------- *)

let line_bytes = Region.line_size

(* Lines a mask can name. 62 keeps every mask a non-negative int, so the
   whole-range sentinel (-1) can never collide with one. *)
let mask_lines = 62

let whole_range = -1

(* Mark the bytes [abs, abs+len) of [r]'s range dirty; the caller passes a
   sub-range of the declared range. *)
let mark_lines r abs len =
  if len > 0 && r.r_dirty <> whole_range then begin
    let base = r.r_off / line_bytes in
    if ((r.r_off + r.r_len - 1) / line_bytes) - base >= mask_lines then
      r.r_dirty <- whole_range
    else
      let l0 = (abs / line_bytes) - base and l1 = ((abs + len - 1) / line_bytes) - base in
      r.r_dirty <- r.r_dirty lor (((1 lsl (l1 - l0 + 1)) - 1) lsl l0)
  end

(* Mark [abs, abs+len) dirty in every write-set range it overlaps: how the
   engine's raw heap mutations (allocation, free, root update) record what
   they stored. *)
let mark_written t abs len =
  let stop = abs + len in
  for i = 0 to t.ws_n - 1 do
    let r = Array.unsafe_get t.ws i in
    let lo = if abs > r.r_off then abs else r.r_off in
    let hi = if stop < r.r_off + r.r_len then stop else r.r_off + r.r_len in
    if lo < hi then mark_lines r lo (hi - lo)
  done

(* Append the run [(off, len, key)] to the run scratch as triple [k],
   growing it by doubling; returns the next free triple. *)
let push_run t k off len key =
  if (3 * k) + 3 > Array.length t.runs then begin
    let grown = Array.make (2 * Array.length t.runs) 0 in
    Array.blit t.runs 0 grown 0 (Array.length t.runs);
    t.runs <- grown
  end;
  let a = t.runs in
  a.(3 * k) <- off;
  a.((3 * k) + 1) <- len;
  a.((3 * k) + 2) <- key;
  k + 1

(* Trailing one bits of [d], counted from [n]. *)
let rec ones d n = if d land 1 = 0 then n else ones (d lsr 1) (n + 1)

(* Emit the runs of consecutive set bits of mask [d] (bit 0 = line [l] of
   [r]'s range), each clipped to the declared range, from triple [k]. *)
let rec emit_mask t r d l k =
  if d = 0 then k
  else if d land 1 = 0 then emit_mask t r (d lsr 1) (l + 1) k
  else begin
    let n = ones d 0 in
    let first = ((r.r_off / line_bytes) + l) * line_bytes in
    let lo = if first > r.r_off then first else r.r_off in
    let stop = first + (n * line_bytes) in
    let hi = if stop < r.r_off + r.r_len then stop else r.r_off + r.r_len in
    emit_mask t r (d lsr n) (l + n) (push_run t k lo (hi - lo) r.r_key)
  end

(* [r]'s dirty-line runs, clipped to its range, appended from triple [k]:
   nothing for an unwritten range, the whole range for a wide one. *)
let emit_runs t r k =
  if r.r_dirty = whole_range then push_run t k r.r_off r.r_len r.r_key
  else emit_mask t r r.r_dirty 0 k

(* Make everything appended to this transaction's log durable, once. The
   per-kind barrier target (intent-log slot vs. data log) is the variant's
   business. *)
let do_barrier tx =
  if tx.needs_barrier then begin
    tx.owner.strat.v_barrier tx.owner tx;
    tx.needs_barrier <- false
  end

(* Flush the write set's ranges (declaration order) against the main heap
   and return how many were selected; [persist_ws] then fences iff at
   least one was. The fence condition tracks
   the {e range list}, not the lines actually flushed — a commit whose
   ranges are already clean still fences, exactly as the list-based
   predecessor of this function did. [in_place_only] restricts to ranges
   without a CoW redirection. *)
let flush_ws t ~in_place_only =
  let n = ref 0 in
  for i = 0 to t.ws_n - 1 do
    let r = t.ws.(i) in
    if (not in_place_only) || r.cow = None then begin
      incr n;
      Region.flush t.main r.r_off r.r_len
    end
  done;
  !n

let persist_ws t ~in_place_only = if flush_ws t ~in_place_only > 0 then Region.fence t.main

(* Intent-log slot of [tx], claimed on first use so read-only transactions
   never touch the log region. How a free slot is obtained under pressure
   (drain the applier vs. fail) is the variant's business. *)
let claim_slot tx =
  match tx.slot with
  | Some s -> s
  | None ->
      let s = tx.owner.strat.v_claim_slot tx.owner tx in
      tx.slot <- Some s;
      s

(* Append a write intent to the log, merging it into the immediately
   preceding entry when legal (see {!Intent_log.add_intent_merged}). Log
   entries stay an {e exact} union of the declared bytes: recovery's
   cross-record disjointness argument forbids gap-filling — a widened
   committed entry could overlap the incomplete transaction's torn bytes
   and launder them into the backup before the rollback reads it.
   [mergeable] is the variant's call: dynamic backups never merge at all —
   their recovery resolves ranges object by object and needs each entry to
   match a resident copy exactly. *)
let log_intent t slot ~mergeable ~off ~len =
  let ilog = the_ilog t in
  if mergeable then begin
    let _, merged = Intent_log.add_intent_merged ilog slot { Intent_log.off; len } in
    if merged then Metrics.incr t.m_ranges_coalesced
  end
  else Intent_log.add_intent ilog slot { Intent_log.off; len };
  if t.e_config.flush_per_intent then Intent_log.barrier ilog slot;
  if Obs.enabled t.e_obs then
    Obs.emit t.e_obs ~kind:Obs.k_intent ~track:t.obs_base ~ts:(Clock.now t.clk)
      ~dur:(-1) ~a:off ~b:len ~c:0

(* Run triples compare by (offset, length, key): a total order on
   distinct triples, so the sorted order, and the merge built on it, does
   not depend on how a sort breaks ties (run starts are not unique: two
   ranges can start runs on one line boundary). The annotations keep the
   comparisons on ints rather than polymorphic compare. *)
let run_lt (a : int array) i j =
  let oi = a.(3 * i) and oj = a.(3 * j) in
  oi < oj
  || oi = oj
     &&
     let li = a.((3 * i) + 1) and lj = a.((3 * j) + 1) in
     li < lj || (li = lj && a.((3 * i) + 2) < a.((3 * j) + 2))

let swap_runs (a : int array) i j =
  for f = 0 to 2 do
    let x = a.((3 * i) + f) in
    a.((3 * i) + f) <- a.((3 * j) + f);
    a.((3 * j) + f) <- x
  done

let rec sift a i n =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && run_lt a l (l + 1) then l + 1 else l in
    if run_lt a i c then begin
      swap_runs a i c;
      sift a c n
    end
  end

(* Heap sort of the first [n] run triples: in place and O(n log n), since
   an applier batch or a large free can gather hundreds. *)
let sort_runs a n =
  for i = (n / 2) - 1 downto 0 do
    sift a i n
  done;
  for last = n - 1 downto 1 do
    swap_runs a 0 last;
    sift a 0 last
  done

(* Merge the [n] sorted run triples in place; returns how many remain.
   Exact overlap/adjacency merges are always safe (the union covers
   precisely the same bytes). The 64 B line-threshold merge — two ranges
   whose gap lies within one cache line become one range, gap included —
   is applied only with [gap_fill] and when both ranges belong to the same
   locked object ([key]): the gap bytes then sit under this transaction's
   own write lock, so they hold committed data whenever the (possibly
   lazy) copy executes. A cross-object gap could cover a third, unrelated
   object that an active transaction is updating in place, and its
   uncommitted bytes must never reach the backup — an abort would restore
   them. *)
let merge_runs ~gap_fill a n =
  if n = 0 then 0
  else begin
    let w = ref 0 in
    let coff = ref a.(0) and clen = ref a.(1) in
    let ckey = ref a.(2) and cmixed = ref false in
    for i = 1 to n - 1 do
      let off = a.(3 * i) and len = a.((3 * i) + 1) and key = a.((3 * i) + 2) in
      let cend = !coff + !clen in
      let same_obj = (not !cmixed) && !ckey = key in
      if off <= cend then begin
        clen := Int.max cend (off + len) - !coff;
        if not same_obj then cmixed := true
      end
      else if gap_fill && same_obj && off / line_bytes = (cend - 1) / line_bytes then
        clen := off + len - !coff
      else begin
        a.(3 * !w) <- !coff;
        a.((3 * !w) + 1) <- !clen;
        incr w;
        coff := off;
        clen := len;
        ckey := key;
        cmixed := false
      end
    done;
    a.(3 * !w) <- !coff;
    a.((3 * !w) + 1) <- !clen;
    !w + 1
  end

(* The ranges a full backup propagates for the committed write set: every
   range's dirty-line runs (DESIGN.md par19 — a clean line of a declared
   range already agrees with the backup), sorted and merged. Runs live in
   the engine's pooled scratch, so the only allocation is the returned
   list. Records the ranges the merge eliminated and the bytes the runs
   and merges saved against copying every declared range in full. *)
let coalesce_write_set t =
  let n = ref 0 and declared = ref 0 in
  for i = 0 to t.ws_n - 1 do
    let r = t.ws.(i) in
    declared := !declared + r.r_len;
    n := emit_runs t r !n
  done;
  let a = t.runs in
  sort_runs a !n;
  let m = merge_runs ~gap_fill:true a !n in
  let acc = ref [] and copied = ref 0 in
  for j = m - 1 downto 0 do
    let len = a.((3 * j) + 1) in
    copied := !copied + len;
    acc := { Intent_log.off = a.(3 * j); len } :: !acc
  done;
  Metrics.add t.m_ranges_coalesced (!n - m);
  Metrics.add t.m_bytes_saved (!declared - !copied);
  !acc

(* Modelled applier cost of propagating a committed write set: copy each
   range into the backup and issue its write-backs. The applier drains
   batches of tasks behind one fence, so the fence latency is amortized. *)
let applier_fence_batch = 4.0

let task_cost cm ranges =
  (* Open-coded fold: a closure-based [List.fold_left] over floats boxes
     the accumulator on every step without flambda. *)
  let acc = ref (cm.Cost_model.fence_ns /. applier_fence_batch) in
  List.iter
    (fun { Intent_log.off = _; len } ->
      acc :=
        !acc
        +. Cost_model.copy_cost cm len
        +. (cm.Cost_model.flush_line_ns *. float_of_int ((len + 63) / 64)))
    ranges;
  !acc

(* Predicate for dynamic-backup eviction: an object is pinned while the
   active transaction holds it or while a committed-but-unapplied task still
   needs its resident copy. *)
let pinned t key =
  Locks.held_by_active_tx t.locks key
  ||
  match t.appl with
  | Some a -> Locks.last_writer_task t.locks key > Applier.applied_through a
  | None -> false

(* Aggregate NVM counters over every region of the stack (heap, logs,
   backup): the whole point of coalescing and batching is to shrink the
   copy and write-back traffic of the {e system}, most of which lands on
   the backup and log regions, not the main heap. *)
let main_counters t =
  let agg = Region.zero_counters () in
  Array.iter (fun r -> Region.add_counters agg (Region.counters r)) t.all_regions;
  agg

let storage_bytes t = Array.fold_left (fun acc r -> acc + Region.size r) 0 t.all_regions

let drain_backup t = match t.appl with Some a -> Applier.drain a | None -> ()

(* The backup invariant that all of Kamino-Tx's safety rests on: once the
   applier has drained, the backup agrees with the main heap — everywhere
   for a full backup, on every resident copy for a dynamic one. *)
let verify_backup t =
  match t.bkp with
  | None -> Ok ()
  | Some b -> (
      drain_backup t;
      let mismatches = ref [] in
      (match Backup.dump_mapping b with
      | [] ->
          (* Full backup: compare every live object extent and the
             heap's metadata block. *)
          let h = t.heap in
          let check off len what =
            match Backup.copy_matches ~len b ~main:t.main ~off with
            | Some false -> mismatches := what :: !mismatches
            | Some true | None -> ()
          in
          check 0 (Heap.data_start h) "heap metadata";
          Heap.iter_objects h (fun p ~capacity ~allocated ->
              if allocated then
                check (p - 16) (capacity + 16) (Printf.sprintf "object %d" p))
      | mapping ->
          List.iter
            (fun (off, _, _) ->
              match Backup.copy_matches b ~main:t.main ~off with
              | Some false ->
                  mismatches := Printf.sprintf "resident copy at %d" off :: !mismatches
              | Some true | None -> ())
            mapping);
      match !mismatches with
      | [] ->
          Result.map_error
            (fun e -> "backup's resident map diverges from its table: " ^ e)
            (Backup.check_resident b)
      | w :: _ ->
          Error
            (Printf.sprintf "backup diverges from main (%d ranges, first: %s)"
               (List.length !mismatches) w))

let release_all tx ~write_release =
  let t = tx.owner in
  t.last_write_keys <- tx.lock_keys;
  List.iter (fun e -> Locks.release_write_e e ~at:write_release) tx.lock_entries;
  let read_at = Clock.now t.clk in
  List.iter (fun e -> Locks.release_read_e e ~at:read_at) tx.read_entries

let finish tx =
  tx.finished <- true;
  tx.owner.active <- None

(* Top-level loops: a batch is applied on the hot path (a lock conflict
   syncs a queued task), so it allocates no closures. *)
let rec propagate_all b main = function
  | [] -> ()
  | { Intent_log.off; len } :: rest ->
      Backup.propagate b ~main ~off ~len;
      propagate_all b main rest

let propagate_ranges b main = function
  | [] -> ()
  | ranges ->
      propagate_all b main ranges;
      Backup.settle b

let rec release_tasks ilog = function
  | [] -> ()
  | task :: rest ->
      Intent_log.release ilog task.Applier.slot;
      release_tasks ilog rest

let rec load_ranges t k = function
  | [] -> k
  | { Intent_log.off; len } :: rest ->
      load_ranges t (if len > 0 then push_run t k off len 0 else k) rest

let rec load_tasks t k = function
  | [] -> k
  | task :: rest -> load_tasks t (load_ranges t k task.Applier.ranges) rest

(* A full backup's batch: every task's ranges gathered into the pooled run
   scratch (a commit's [coalesce_write_set] never runs while a batch
   applies), sorted, exact-merged, copied and flushed, then fenced once.
   Allocation-free. *)
let apply_full_batch t b tasks =
  let n = load_tasks t 0 tasks in
  let a = t.runs in
  let raw = ref 0 in
  for i = 0 to n - 1 do
    raw := !raw + a.((3 * i) + 1)
  done;
  sort_runs a n;
  let m = merge_runs ~gap_fill:false a n in
  let merged = ref 0 in
  for j = 0 to m - 1 do
    let len = a.((3 * j) + 1) in
    merged := !merged + len;
    Backup.propagate b ~main:t.main ~off:a.(3 * j) ~len
  done;
  if m > 0 then Backup.settle b;
  Metrics.add t.m_ranges_coalesced (n - m);
  Metrics.add t.m_bytes_saved (!raw - !merged)

(* The applier hands every drain over as one batch of tasks; merging their
   ranges into a single copy pass is what "batched backup propagation"
   means. Only {e exact} merges (overlap / adjacency — the union covers
   precisely the same bytes) are legal here: a gap-filling merge across
   tasks could cover a third object an active transaction is updating in
   place, and its uncommitted bytes must never reach the backup (an abort
   would then restore them). Committed-but-queued ranges themselves are
   safe to copy at any later time — [declare] applies every queued task
   covering an object before the new transaction's first write to it, so no
   queued range ever overlaps bytes an active transaction has modified.
   Dynamic backups are object-keyed ([Backup.propagate] demands an exact
   [(off, len)] resident match), so their batches only deduplicate
   identical ranges, never merge bytes. A full backup's batch is flushed
   range by range and fenced once, before any intent-log slot is
   released. *)
let make_applier t =
  let apply tasks =
    let b = the_bkp t and ilog = the_ilog t in
    (if Obs.enabled t.e_obs then
       let ntasks = List.length tasks in
       let nranges =
         List.fold_left (fun n task -> n + List.length task.Applier.ranges) 0 tasks
       in
       Obs.emit t.e_obs ~kind:Obs.k_applier_batch ~track:(t.obs_base + 1)
         ~ts:(Clock.now t.clk) ~dur:(-1) ~a:ntasks ~b:nranges ~c:0);
    (match tasks with
    | [ { Applier.ranges = raw; _ } ] ->
        (* Singleton batch: a task's ranges are already merged (full
           backup), distinct objects (dynamic) or deliberately raw
           (coalescing off), so skip the cross-task machinery. This is the
           common shape when a lock conflict syncs one queued task. *)
        propagate_ranges b t.main raw
    | _ when t.e_config.coalesce_writes && Backup.is_full b -> apply_full_batch t b tasks
    | _ ->
        let raw = List.concat_map (fun task -> task.Applier.ranges) tasks in
        let ranges =
          if not t.e_config.coalesce_writes then raw
          else begin
            let seen = Hashtbl.create 16 in
            let merged =
              List.filter
                (fun { Intent_log.off; len } ->
                  if Hashtbl.mem seen (off, len) then false
                  else begin
                    Hashtbl.add seen (off, len) ();
                    true
                  end)
                raw
            in
            Metrics.add t.m_ranges_coalesced (List.length raw - List.length merged);
            Metrics.add t.m_bytes_saved
              (Intent_log.total_bytes raw - Intent_log.total_bytes merged);
            merged
          end
        in
        propagate_ranges b t.main ranges);
    release_tasks ilog tasks
  in
  Applier.create ~regions:t.all_regions ~apply

(* --- Shared per-family paths --------------------------------------------- *)

(* Abort for the data-log kinds (undo and CoW): replay every durable undo
   snapshot, newest first, then persist the restored ranges. *)
let data_log_abort t tx =
  let dlog = the_dlog t in
  do_barrier tx;
  let entries = Data_log.active_entries dlog in
  let undos = List.filter (fun e -> e.Data_log.replay = Data_log.On_abort) entries in
  List.iter (fun e -> Data_log.apply_entry dlog e ~dst:t.main) (List.rev undos);
  persist_ws t ~in_place_only:true;
  Data_log.finish dlog;
  release_all tx ~write_release:(Clock.now t.clk)

(* Recovery for the data-log kinds. *)
let data_log_recover t =
  let dlog = Data_log.open_existing (Option.get t.dlog_region) in
  t.dlog <- Some dlog;
  match Data_log.phase dlog with
  | Data_log.Idle -> ()
  | Data_log.Running ->
      (* Incomplete transaction: restore every durable undo snapshot. *)
      let entries = Data_log.recover_entries dlog in
      List.iter
        (fun e ->
          if e.Data_log.replay = Data_log.On_abort then begin
            Data_log.apply_entry dlog e ~dst:t.main;
            Region.flush t.main e.Data_log.off e.Data_log.len
          end)
        (List.rev entries);
      Region.fence t.main;
      t.next_tx_id <- max t.next_tx_id (Data_log.tx_id dlog + 1);
      Data_log.finish dlog
  | Data_log.Applying ->
      (* CoW redo point passed: replay the copies, in arena order. *)
      let entries = Data_log.recover_entries dlog in
      List.iter
        (fun e ->
          if e.Data_log.replay = Data_log.On_commit then begin
            Data_log.apply_entry dlog e ~dst:t.main;
            Region.flush t.main e.Data_log.off e.Data_log.len
          end)
        entries;
      Region.fence t.main;
      t.next_tx_id <- max t.next_tx_id (Data_log.tx_id dlog + 1);
      Data_log.finish dlog

(* --- The trivial baseline ------------------------------------------------ *)

let no_op_pre_free _ _ _ = ()

let unsupported what _ _ = error (Unsupported what)

(* [No_logging]: in-place writes, durable but not atomic — the motivation
   baseline of Figure 1. The minimal instantiation of the signature. *)
let no_logging =
  {
    v_object_granular = false;
    v_begin = (fun _ ~tx_id:_ -> ());
    v_claim_slot = (fun _ _ -> error (Component_missing "intent log"));
    v_declare = (fun _ _ ~le:_ ~off:_ ~len:_ ~redirectable:_ -> None);
    v_pre_free = no_op_pre_free;
    v_barrier = (fun _ _ -> ());
    v_commit =
      (fun t tx ->
        persist_ws t ~in_place_only:false;
        release_all tx ~write_release:(Clock.now t.clk));
    v_abort =
      (fun t tx ->
        (* No roll-back: the stores stay, so they persist as a commit's
           do, or a later commit's header could outlive an earlier one
           of this transaction's and cut the heap's header walk short. *)
        persist_ws t ~in_place_only:false;
        finish tx;
        error (Abort_unsupported No_logging));
    v_prepare = unsupported "prepare (no-logging)";
    v_commit_prepared = unsupported "commit_prepared (no-logging)";
    v_recover = (fun _ ~promote_running:_ -> ());
  }
