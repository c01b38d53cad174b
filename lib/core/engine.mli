(** The transaction engine: Kamino-Tx and the three baselines behind one
    API.

    The API mirrors the paper's NVML-derived interface (Table 2): declare
    write intents on whole objects ([add]), allocate and free objects
    transactionally ([alloc] / [free]), read and write fields through the
    engine, then [commit] or [abort]. What happens underneath depends on the
    engine kind:

    - [No_logging]: in-place writes, durable but {e not} atomic — the
      motivation baseline of Figure 1. [abort] raises.
    - [Undo_logging]: NVML semantics — [add] snapshots the object into the
      data log {e in the critical path}; abort/crash restores snapshots.
    - [Cow]: [add] creates a working copy, writes are redirected to it, and
      commit applies the copies to the originals before the locks release
      (still critical-path copying, on the commit side).
    - [Kamino_simple] / [Kamino_dynamic]: the paper's contribution — [add]
      appends an 8-byte-scale intent record, writes go in place, commit
      enqueues the write set to the background {!Applier}, and write locks
      release only when the backup has (virtually) caught up, so only
      dependent transactions ever wait for copying.

    {b Timing model.} All costs are charged to the engine's current
    {!Kamino_sim.Clock}; multi-client experiments switch the clock between
    clients (execution is serial at the data level, overlapped in virtual
    time — see DESIGN.md §6).

    {b Crash discipline.} [crash] simulates power failure on every region;
    [recover] reopens the structures and replays/rolls back from the logs.
    Property tests drive random workloads with crashes at arbitrary points
    and assert that committed transactions survive and uncommitted ones
    vanish. *)

module Heap = Kamino_heap.Heap

type kind = Variant.kind =
  | No_logging
  | Undo_logging
  | Cow
  | Kamino_simple
  | Kamino_dynamic of { alpha : float; policy : Backup.policy }
  | Intent_only
      (** a non-head chain replica (§5): in-place updates guarded only by
          the intent log; recovery of incomplete transactions needs a chain
          neighbour ({!resolve_from_peer}) because there is no local
          backup — the reason Kamino-Tx-Chain needs [f+2] replicas. *)

val kind_name : kind -> string

type config = Variant.config = {
  heap_bytes : int;  (** main heap region size *)
  log_slots : int;  (** intent-log ring capacity (concurrent unapplied txs) *)
  max_tx_entries : int;  (** max write intents per transaction *)
  data_log_bytes : int;  (** undo/CoW arena size *)
  cost : Kamino_nvm.Cost_model.t;
  crash_mode : Kamino_nvm.Region.crash_mode;
  flush_per_intent : bool;
      (** ablation: persist each intent individually instead of batching *)
  global_pending : bool;
      (** ablation: treat the whole heap as one pending unit — every
          transaction waits for full backup catch-up (coarse blocking) *)
}
(** Engine sizes, cost model and ablations. No field chooses the write
    path: a full backup's intents merge in the log as they are declared,
    its commit hands the applier the write set's dirty-line runs,
    coalesced, and the applier copies a batch of tasks in one pass;
    dynamic backups keep exact per-object ranges. *)

val default_config : config

(** {1 Errors}

    Engine-state misuse raises {!Error} with a variant the shard and
    chaos layers can match on. Programming errors against the heap API
    (freeing an unallocated pointer, a field range outside its object)
    remain [Invalid_argument]. *)

type error = Variant.error =
  | Tx_already_active  (** [begin_tx] while a transaction is active *)
  | Tx_finished  (** operation on a committed/aborted/crashed handle *)
  | Tx_not_active  (** stale handle: a different transaction is active *)
  | Intent_log_exhausted of string
      (** no free slot and no way to make one; the payload says where *)
  | Missing_intent of { off : int; len : int }
      (** transactional write not covered by a declared intent —
          missing [TX_ADD] *)
  | Abort_unsupported of kind
      (** the kind cannot roll back locally (no-logging, chain replicas) *)
  | Component_missing of string
      (** the kind has no such component (e.g. data log on Kamino) *)
  | Unsupported of string  (** operation undefined for the kind *)
  | Stale_reservation of string
      (** {!publish} of a reservation made by another transaction, by a
          finished one, or published already; the payload says which *)
  | Unresolved_record of int
      (** [Intent_only]: {!begin_tx} while the named transaction's intent
          record is still [Running] (the image it covers may be torn):
          after it aborted, or after {!recover} found it, until
          {!resolve_from_peer} *)

exception Error of error

type t

type tx

(** [create ~kind ~seed ()] builds the full stack: main heap, logs, backup,
    lock table, applier. Deterministic from [seed].

    [obs] (default {!Kamino_obs.Obs.null}) attaches an event tracer;
    [obs_track] (default 1) is the engine's base Perfetto track id —
    the engine uses [obs_track] for transaction events, [obs_track + 1]
    for the applier timeline and [obs_track + 2] for NVM write-backs.
    With the default null tracer every instrumentation site reduces to
    one predictable branch: zero allocation, zero simulated-time skew
    (DESIGN.md par10). *)
val create :
  ?config:config ->
  ?obs:Kamino_obs.Obs.t ->
  ?obs_track:int ->
  kind:kind ->
  seed:int ->
  unit ->
  t

val kind : t -> kind

val config : t -> config

val heap : t -> Heap.t

(** The engine's current client clock. *)
val clock : t -> Kamino_sim.Clock.t

(** [set_clock t c] switches the active client: all subsequent costs charge
    to [c]. *)
val set_clock : t -> Kamino_sim.Clock.t -> unit

val now : t -> int

(** {1 Transactions} *)

(** Starts a transaction. Raises [Error Tx_already_active] if one is
    already active (execution is serial at the data level), and
    [Error (Unresolved_record _)] while an [Intent_only] record awaits a
    peer (see {!with_tx} and {!resolve_from_peer}). *)
val begin_tx : t -> tx

(** The engine a transaction belongs to. *)
val tx_engine : tx -> t

(** The transaction's engine-local id (what intent-log records and the
    sharded commit marker carry). *)
val tx_id : tx -> int

(** The id {!begin_tx} issued last (0 before the first). A crash keeps
    it, so the transactions an interrupted operation began are those
    after the value read before it. *)
val last_tx_id : t -> int

(** [add tx p] declares a write intent on object [p] (whole extent),
    acquiring its write lock — the [TX_ADD] of Table 2. Idempotent per
    object per transaction. *)
val add : tx -> Heap.ptr -> unit

(** [add_range tx range] declares an intent on an arbitrary range
    (an extent being freed, the root pointer), edited in place. *)
val add_range : tx -> Heap.range -> unit

(** [add_field tx p field len] declares a write intent on [len] bytes at
    payload offset [field] of object [p] — NVML's field-granular
    [TX_ADD_FIELD]. The whole object is still locked (the paper's isolation
    is object-granular), but only the field's bytes are snapshotted
    (undo/CoW) or propagated to the backup (Kamino), which is the §1
    granularity argument: logging whole documents for byte-range updates is
    what makes copying baselines expensive. *)
val add_field : tx -> Heap.ptr -> int -> int -> unit

(** [read_lock tx p] acquires a read lock: a dependent reader of a pending
    object waits for backup catch-up, per the paper's safety rules. *)
val read_lock : tx -> Heap.ptr -> unit

(** [alloc tx size] — [TX_ZALLOC]: transactionally allocates a zeroed
    object; undone on abort or crash. Raises [Invalid_argument] for a size
    above [Heap.max_object_size], before any intent is declared. *)
val alloc : tx -> int -> Heap.ptr

(** [alloc_many tx sizes] — {!alloc} of every size, in order, behind one
    barrier: [publish tx (reserve tx sizes)]. It claims all the
    objects, declares their extents, makes those intents (and every
    intent declared before them) durable with a single barrier, then
    stores their headers. Returns the same pointers, and leaves the same
    heap image, as one {!alloc} per size. The building
    block of plan-then-apply transactions: declare the whole write set,
    allocate once, then write in place (DESIGN.md §18). *)
val alloc_many : tx -> int list -> Heap.ptr list

(** {2 Reserve, then publish}

    {!alloc_many} in two halves, so the allocator's search can run before
    the transaction locks what will point at the new objects
    (DESIGN.md §26). *)

(** One transaction's claim on objects ({!Heap.reservation}). *)
type reservation

(** [reserve tx sizes] claims one object per size from the heap's
    volatile state and charges [alloc_ns] per object; it stores, loads
    and declares nothing and takes no lock. The transaction's end gives
    back what it did not publish (a roll-back, everything). The search
    is timed under the allocator's volatile mutex: it starts once the last reservation's
    search ended, and once the last transaction that gave a reservation
    back (it aborted, or committed without publishing one) or freed an
    object ended; the wait counts in {!Locks.waits}. Raises
    [Invalid_argument] for a size above [Heap.max_object_size], before
    any wait, and [Out_of_memory] when the heap cannot hold the
    objects. *)
val reserve : tx -> int list -> reservation

(** [publish tx r] is the rest of {!alloc_many}: it declares [r]'s
    extents, makes them and every earlier intent durable with one
    barrier, and stores the headers and zero fill. Returns the pointers,
    in order. [r] survives its transaction's later allocations and frees;
    [publish] raises [Error (Stale_reservation _)], before any store,
    charge or lock, when [r] was made by another transaction, when its
    transaction finished ([r] may have been given back), or when [r] was
    published already. A commit, and an abort that cannot roll back,
    publishes and frees a claim of fresh space left unpublished under a
    published one. *)
val publish : tx -> reservation -> Heap.ptr list

(** [free tx p] — [TX_FREE]: transactionally frees an object. The
    transaction's next allocation of its class reuses it, with no
    intent or barrier of its own; otherwise it joins its class's free
    extents when the transaction commits. Raises [Invalid_argument] if
    [p] is not an allocated object. *)
val free : tx -> Heap.ptr -> unit

(** [declare_free tx p] declares the extent a later [free tx p]
    modifies, so that the [free] itself adds no intent and needs no
    barrier of its own. *)
val declare_free : tx -> Heap.ptr -> unit

(** [commit tx] makes the transaction durable and atomic. The critical path
    ends when this returns; lock release may be later (Kamino kinds). A
    full backup's applier task copies only the 64 B lines the transaction
    wrote inside its declared ranges (DESIGN.md §19); the intent log,
    abort and recovery keep the full declared ranges. *)
val commit : tx -> unit

(** [abort tx] rolls the transaction back. Raises
    [Error (Abort_unsupported _)] on [No_logging], which persists its
    stores instead, and [Intent_only]. *)
val abort : tx -> unit

(** {2 Two-phase commit (sharded cross-shard transactions)}

    [prepare tx] makes the transaction's write set and intent record
    durable while the record still says [Running] — a crash at this point
    rolls the transaction back on recovery. [commit_prepared tx] is the
    decision half of {!commit}: it marks the record committed, hands the
    write set to the backup applier and releases the locks at the
    applier's finish time. [commit tx] is exactly [prepare] followed by
    [commit_prepared]; the sharded façade interleaves its persistent
    cross-shard commit marker between the two, and recovery passes the
    marker's transaction set to {!recover} as [promote_running] so every
    marked participant rolls {e forward}. Only the Kamino kinds support
    two-phase commit; others raise [Error (Unsupported _)]. A prepared
    transaction can still {!abort} (marker never written). *)

val prepare : tx -> unit

val commit_prepared : tx -> unit

(** [with_tx t f] runs [f] in a transaction, committing on return and
    aborting on exception, then re-raising that exception with its
    backtrace. On a kind that cannot roll back ([No_logging],
    [Intent_only]) the abort only finishes the handle and releases its
    locks, and its [Abort_unsupported] error does not replace the
    caller's exception. An [Intent_only] transaction that had claimed its
    intent-log slot leaves its record [Running], so {!begin_tx} then
    raises [Error (Unresolved_record _)] until {!resolve_from_peer}; a
    crash does not lift that, since {!recover} finds the record again. *)
val with_tx : t -> (tx -> 'a) -> 'a

(** [set_root tx p] transactionally updates the heap root. *)
val set_root : tx -> Heap.ptr -> unit

val root : t -> Heap.ptr

(** {1 Data access}

    Writes must be covered by a declared intent (checked); field offsets are relative to the object payload.
    Reads inside a transaction see the transaction's own writes (CoW
    redirection included). *)

val write_int64 : tx -> Heap.ptr -> int -> int64 -> unit

val write_int : tx -> Heap.ptr -> int -> int -> unit

val write_byte : tx -> Heap.ptr -> int -> int -> unit

val write_bytes : tx -> Heap.ptr -> int -> bytes -> unit

val write_string : tx -> Heap.ptr -> int -> string -> unit

val read_int64 : tx -> Heap.ptr -> int -> int64

val read_int : tx -> Heap.ptr -> int -> int

val read_byte : tx -> Heap.ptr -> int -> int

val read_bytes : tx -> Heap.ptr -> int -> int -> bytes

(** [read_prefixed tx p field ~max] reads the length-prefixed record at
    [field]: its length word [len], then the [len] bytes after it, charged
    as one load of [8 + len] bytes ({!Kamino_nvm.Region.read_prefixed}).
    It raises [Region.Corrupt] when [len] lies outside [\[0, max\]], so a
    corrupt word never reads into a neighbouring object; [8 + max] bytes
    from [field] must lie inside the object.

    Under CoW it follows the transaction's working copies byte for byte.
    When one place holds the record's whole [8 + max] extent (no intent
    overlaps it, or one covers it) the read is still one load. When the
    extent straddles the edge of a working copy (a field-granular
    {!add_field}), the length word and each piece of the bytes are loaded
    from where they live: never main-heap bytes for a redirected range. *)
val read_prefixed : tx -> Heap.ptr -> int -> max:int -> string

(** Outside-transaction reads of committed state. *)

val peek_int64 : t -> Heap.ptr -> int -> int64

val peek_int : t -> Heap.ptr -> int -> int

val peek_bytes : t -> Heap.ptr -> int -> int -> bytes

val peek_string : t -> Heap.ptr -> int -> int -> string

(** [peek_prefixed t p field ~max] — {!read_prefixed} on committed state:
    one load of [8 + len] bytes, [Region.Corrupt] outside [\[0, max\]]. *)
val peek_prefixed : t -> Heap.ptr -> int -> max:int -> string

(** [peek_run t p field len] charges one committed load of [len] bytes at
    [field] ({!Kamino_nvm.Region.charge_load}) and returns nothing: the
    caller then reads the run's words with {!probe_int}. A run costs one
    load's overhead however many words it holds, with no buffer
    allocated. *)
val peek_run : t -> Heap.ptr -> int -> int -> unit

(** [probe_int t p field] — cost-free committed read (no simulated load
    charged, like [Region.peek_int]). Strictly for observability walks such
    as the B+Tree depth/occupancy gauges; data paths must use {!peek_int}
    so the cost model sees the access. *)
val probe_int : t -> Heap.ptr -> int -> int

(** {1 Snapshot reads (MVCC-lite)}

    The full backup is, at any instant, a transactionally consistent
    slightly-stale copy of the main heap: it is written only by the
    {!Applier} (committed tasks, in ascending id order) and by recovery,
    so it holds exactly the heap state with the committed prefix
    [1..applied_through] rolled forward. A snapshot read serves directly
    from that image at the applier's published watermark — it takes
    {e no locks}, never joins the dependent-wait class and never blocks
    or perturbs writers. Staleness is bounded and observable:
    [engine.snapshot_staleness_ns] records (last commit sim-ns −
    watermark sim-ns) per served read.

    Only engines with a full backup ([Kamino_simple] and promoted chain
    heads) can serve snapshots; dynamic backups are object-keyed (no
    consistent whole-heap image) and the other kinds have no backup, so
    {!read_tx} returns [None] and the caller falls back to the locked
    path behind the same API ([snapshot.fallbacks] counts these). *)

type snapshot

(** [read_tx t f] runs the read-only body [f] against the backup image
    and returns [Some result] (a {e snapshot hit}). [f] itself may return
    [None] to decline — e.g. when the structure it wants has not
    propagated into the backup yet — which counts as a fallback, like an
    engine with no servable backup. [clock] optionally charges the
    snapshot's loads to a dedicated reader clock instead of the engine's
    current one (the backup region's clock is swapped for the duration of
    [f] and restored). *)
val read_tx : ?clock:Kamino_sim.Clock.t -> t -> (snapshot -> 'a option) -> 'a option

(** The applier's published commit watermark [(applied_task_id, wm_ns)]
    when the engine can serve snapshots, [None] otherwise. Both
    components are monotone between recoveries; a fresh applier restarts
    at [(0, 0)], at which point the backup holds the whole durable
    prefix. *)
val snapshot_watermark : t -> (int * int) option

(** Reads inside a {!read_tx} body: identical offsets to the main heap
    (the full backup mirrors it), charged to the reading clock. *)

val snapshot_read_int64 : snapshot -> Heap.ptr -> int -> int64

val snapshot_read_int : snapshot -> Heap.ptr -> int -> int

(** [snapshot_read_prefixed s p field ~max] — {!read_prefixed} in the
    backup image: one load of [8 + len] bytes, [Region.Corrupt] outside
    [\[0, max\]]. *)
val snapshot_read_prefixed : snapshot -> Heap.ptr -> int -> max:int -> string

(** The heap root pointer as the snapshot saw it ([Heap.null] if the
    store's creating transaction has not propagated yet). *)
val snapshot_root : snapshot -> Heap.ptr

(** {1 Crashes and recovery} *)

(** Simulated power failure on every region of the stack. Any active
    transaction is lost (its volatile state is discarded). *)
val crash : t -> unit

(** Reopens all structures after {!crash} and restores consistency:
    committed-but-unapplied transactions roll forward to the backup,
    incomplete ones roll back from it (or from the data log for the
    copying baselines). [promote_running] (default [fun _ -> false])
    is the sharded commit marker's all-or-nothing decision: a [Running]
    intent-log record whose transaction id it accepts is treated as
    committed and rolled {e forward} — safe only because {!prepare} made
    the record's in-place writes durable before any marker naming it
    could exist. Then it rebuilds the heap's volatile allocator state
    with a charged walk of the final image's extent headers. Raises
    [Kamino_nvm.Region.Corrupt], the one exception of every decoder,
    when the intent log, the data log or a dynamic backup's look-up
    table cannot be decoded (before recovery writes anything), or when
    the heap's metadata or an extent header cannot (after the roll-back
    or forward). *)
val recover : ?promote_running:(int -> bool) -> t -> unit

(** What recovery will make of a transaction, read off a crashed image. *)
type durable_outcome =
  | Committed  (** its record rolls forward *)
  | Aborted  (** its record rolls back: it is [Running] or [Aborted], or
                 its sealed commit mark's checksum does not match the image *)
  | Absent
      (** no record of it survives: it never made its first barrier
          durable, or its record was applied and released *)

(** [durable_outcome t tx_id] reads, after {!crash} and before
    {!recover}, the outcome recovery will give transaction [tx_id]. It
    decodes the intent log afresh (raising [Kamino_nvm.Region.Corrupt]
    like {!recover}) and checks a sealed mark's checksum the way recovery
    does; its loads are charged like recovery's. Kamino-simple and
    Kamino-dynamic only; any other kind raises [Error (Unsupported _)]. *)
val durable_outcome : t -> int -> durable_outcome

(** Apply every queued backup task (e.g. before clean shutdown or before
    inspecting the backup in tests). *)
val drain_backup : t -> unit

(** Drain the applier, then check the invariant all of Kamino-Tx's safety
    rests on: the backup agrees with the main heap — on every live object
    for a full backup, on every resident copy for a dynamic one. [Ok] for
    engines without a backup. *)
val verify_backup : t -> (unit, string) result

(** Write-set lock keys of the most recently committed transaction. The
    chain layer uses them to extend the head's lock hold until the tail's
    acknowledgment arrives. *)
val last_write_keys : t -> int list

(** [resolve_from_peer t ~peer] completes an [Intent_only] replica's
    recovery by copying every unresolved record's ranges from a chain
    neighbour's heap (predecessor to roll forward, successor to roll back
    — identical mechanics, the chain picks the peer per §5.3). Until it
    runs, a replica whose log holds a record, found by {!recover} or left
    by an aborted transaction, refuses {!begin_tx}. It then rebuilds the
    heap's volatile allocator state from the headers, as {!recover}
    does. *)
val resolve_from_peer : t -> peer:Kamino_nvm.Region.t -> unit

(** [promote_to_kamino t] turns an [Intent_only] replica into a
    Kamino-simple head: builds a full local backup from the current heap
    and starts a backup applier (§5.2, head failure). *)
val promote_to_kamino : t -> unit

(** {1 Metrics} *)

type metrics = {
  committed : int;
  aborted : int;
  critical_path_copies : int;  (** data-log entries created (undo/CoW) *)
  backup_hits : int;
  backup_misses : int;  (** dynamic-backup on-demand copies (critical path) *)
  backup_evictions : int;
  applier_tasks : int;  (** committed write sets propagated off-path *)
  tasks_batched : int;
      (** tasks applied as part of a multi-task drain batch *)
  ranges_coalesced : int;
      (** ranges eliminated by write-set coalescing (log-entry merges,
          commit-time merges and cross-task batch merges) *)
  bytes_saved : int;
      (** net cross-region copy bytes avoided against copying every
          declared range in full: the clean bytes dirty-line propagation
          skips, plus what commit-time coalescing and batch merges save
          (less the gap bytes line-threshold merges add) *)
  lock_wait_ns : int;
  lock_wait_events : int;
  storage_bytes : int;  (** total NVM footprint of the stack *)
  snapshot_hits : int;  (** reads served from the backup image *)
  snapshot_fallbacks : int;
      (** snapshot reads that fell back to the locked path (no full
          backup, or the requested structure not yet propagated) *)
}

val metrics : t -> metrics

(** [fingerprint t] hashes the engine's observable execution state —
    simulated instant, the full {!metrics} record, and every region's
    NVM counters plus volatile/persistent content digests — into one hex
    string. Built from cost-free reads only, so fingerprinting never
    perturbs the run: the parallel-vs-sequential oracle compares
    fingerprints across {!Shard_driver.run} [domains] settings. *)
val fingerprint : t -> string

(** The engine's tracer, as passed to {!create} ([Obs.null] otherwise). *)
val obs : t -> Kamino_obs.Obs.t

(** The engine's metrics registry — the store behind {!metrics}. The
    engine's own counters ([engine.committed], [engine.ranges_coalesced],
    ...) and histograms ([engine.dependent_wait_ns], [applier.lag_ns],
    [applier.queue_depth]) update live; component-owned numbers
    ([backup.hits], [applier.tasks], [locks.wait_ns], ...) are synced in
    as gauges on each call, so the returned registry is a complete
    snapshot for {!Kamino_obs.Sink.summary}. *)
val registry : t -> Kamino_obs.Metrics.t

val storage_bytes : t -> int

(** Aggregated NVM counters (stores, flushes, fences, copies, ...) summed
    over every region of the stack — main heap, logs and backup. The
    returned record is a fresh snapshot; mutating it affects nothing. *)
val main_counters : t -> Kamino_nvm.Region.counters

(** The sub-nanosecond carries of every region of the stack, summed
    ({!Kamino_nvm.Region.carry_ns}). With one client and no wait, a span's
    clock advance is {!main_counters}' delta dotted with the cost model,
    plus [lock_ns] per {!Locks.acquisitions}, plus this at the start less
    this at the end — provided the backup applier did not run inside the
    span (it charges its own clock, but counts into the same regions). *)
val carry_ns : t -> float

(** Direct access for white-box tests. *)

val main_region : t -> Kamino_nvm.Region.t

val backup : t -> Backup.t option

val applier : t -> Applier.t option

val intent_log : t -> Intent_log.t option

val locks : t -> Locks.t

(** [dirty_ranges tx] — the write set's dirty-line runs before
    coalescing, in declaration order: each declared range's written 64 B
    lines, clipped to the range ([[]] for an unwritten range, the whole
    range for a written one wider than 62 lines). What a full backup would
    propagate if [tx] committed now. *)
val dirty_ranges : tx -> Heap.range list
