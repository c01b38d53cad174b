(** The backup copy of the heap — full (Kamino-Tx-Simple) or dynamic
    partial (Kamino-Tx-Dynamic, §4).

    A full backup is a second region the same size as the main heap; ranges
    live at identical offsets, so roll-forward and roll-back are plain
    cross-region copies and no critical-path work is ever needed to
    establish a copy.

    A dynamic backup holds copies of only the most frequently modified
    objects in a region of size [alpha * heap]: a persistent look-up table
    ({!Phash}: main offset -> packed slot offset and copy length), a
    volatile slot allocator and a volatile resident map ({!Lru}), the
    recency queue whose node for each resident copy keeps the table's
    value and the bucket holding it. Hits, propagation and roll-back read
    the map and never probe the table; an eviction tombstones the bucket
    its node remembers ({!Phash.take_at}). A copy
    of [len] bytes takes a headerless slot of [len] rounded up to 16 bytes;
    freed slots are reused by copies of the same rounded length. A miss on
    a full region evicts one victim ahead: it copies into the slot an
    earlier eviction of that length parked as the spare, and parks its own
    victim's slot, so a full region holds one spare per length. The table
    alone is durable: {!reopen} rebuilds the allocator and the resident
    map from it. When a transaction locks an object
    with no resident copy, the copy is created {e on demand, in the
    critical path} — the latency/storage trade-off the paper evaluates in
    Figures 14-16. The eviction policy is pluggable (LRU per the paper,
    FIFO for the ablation bench). *)

type t

type policy = Lru_policy | Fifo_policy

(** [create_full region] wraps a region the same size as the main heap.
    The caller must initialize it (one whole-heap copy) with {!initialize_full}. *)
val create_full : Kamino_nvm.Region.t -> t

(** [dynamic_sizing ~alpha ~heap_bytes] — the dynamic backup's sizing rule
    for a main heap of [heap_bytes]: [(slots_bytes, capacity)], a slot
    heap of [alpha * heap_bytes] bytes, at least 64 KiB, and a look-up
    table of one bucket per 128 slot bytes, at least 1024 ({!Phash.format}
    rounds it up to a power of two). The table's region takes
    {!Phash.required_size}[ ~capacity] bytes. *)
val dynamic_sizing : alpha:float -> heap_bytes:int -> int * int

(** [create_dynamic ~slots ~table ~capacity ~policy] — a look-up table of
    [capacity] buckets (rounded up to a power of two) formatted in
    [table], which must hold {!Phash.required_size}[ ~capacity] bytes. A
    full table evicts a resident copy to publish a new one. *)
val create_dynamic :
  slots:Kamino_nvm.Region.t ->
  table:Kamino_nvm.Region.t ->
  capacity:int ->
  policy:policy ->
  t

(** Re-attach after a crash: reopens the persistent look-up table (dynamic)
    and rebuilds the volatile state, the slot allocator and the resident
    map, from one walk of it. *)
val reopen : t -> t

(** [initialize_full t ~main] copies the freshly formatted main heap into a
    full backup and persists it. No-op for dynamic backups. *)
val initialize_full : t -> main:Kamino_nvm.Region.t -> unit

(** [ensure_copy t ~main ~off ~len ~locked ~pressure] guarantees the backup
    holds the current main-heap bytes of the range, evicting unlocked
    resident objects if space is needed (dynamic only). When every resident
    copy is pinned, [pressure] is invoked once (the engine drains the
    backup applier, unpinning committed-but-unapplied copies) before a
    final retry; only if that fails too does the call raise [Failure] —
    the working set genuinely exceeds [alpha * heap]. A hit reads the
    resident map only: no table probe, no simulated ns. Charges all work
    to the current clock — this is the dynamic variant's critical-path
    miss cost: one table probe to publish the mapping, and none to evict,
    which tombstones the victim's remembered bucket. A miss issues one
    fence, evicting or not: the copy, the mapping's value word and any
    victim's tombstone are flushed, then fenced once. The mapping's key
    word, the commit point, is flushed only, so the copy is durable at the
    caller's next fence; the engine's intent-log barrier before the first
    in-place write is that fence. The first eviction on a full region has
    no spare and fences once more to reuse its victim's slot (DESIGN.md
    par17). *)
val ensure_copy :
  t ->
  main:Kamino_nvm.Region.t ->
  off:int ->
  len:int ->
  locked:(int -> bool) ->
  pressure:(unit -> unit) ->
  unit

(** [full_region t] — the whole-heap backup region of a full backup
    ([None] for dynamic backups). Ranges live at main-heap offsets, so a
    read of this region at offset [off] observes the backup's copy of main
    byte [off]: this is the substrate of the snapshot-read path
    ({!Engine.read_tx}). *)
val full_region : t -> Kamino_nvm.Region.t option

(** [is_full t] — is this a full (whole-heap) backup? Full backups admit
    byte-level range merging during propagation (any main-offset range can
    be copied across); dynamic backups are object-keyed and require exact
    [(off, len)] matches. *)
val is_full : t -> bool

(** [has_copy t ~off] — does the look-up table map the range starting at
    [off]? Always true for full backups. *)
val has_copy : t -> off:int -> bool

(** [drop t ~off] durably forgets the resident copy for the range at
    [off] (no-op for full backups and absent copies). The engine calls it for every
    range it rolls back: a rolled-back allocation returns its space to the
    allocator, and future objects there may have different extent
    boundaries, which would leave the copy stale and overlapping. *)
val drop : t -> off:int -> unit

(** [propagate t ~main ~off ~len] copies main -> backup (a committed
    transaction propagating) and flushes the copied lines, full or dynamic
    alike. They are durable once {!settle} fences the backup: the applier
    and recovery propagate every range of a batch (or record), then settle
    once, before releasing any intent-log slot. A dynamic backup finds the
    slot in its resident map, with no table probe. Raises [Failure] for a
    dynamic backup with no resident copy of exactly [(off, len)] — the
    engine's locking discipline makes that unreachable. *)
val propagate : t -> main:Kamino_nvm.Region.t -> off:int -> len:int -> unit

(** [settle t] fences the backup region (the whole-heap region of a full
    backup, the slots region of a dynamic one): every range {!propagate}d
    before it is durable. *)
val settle : t -> unit

(** [roll_back t ~main ~off ~len] copies backup -> main and persists the
    main range (an aborted or incomplete transaction being undone). A
    dynamic backup finds the slot in its resident map, which {!reopen}
    rebuilt from the table; a missing copy is a no-op returning [false]: the crash
    happened before the transaction's first write to that range, so main is
    untouched there. *)
val roll_back : t -> main:Kamino_nvm.Region.t -> off:int -> len:int -> bool

(** {1 Metrics (dynamic; zero for full)} *)

val hits : t -> int

val misses : t -> int

val evictions : t -> int

val resident : t -> int

(** Always 0: the look-up table never resizes. Kept for the benchmark
    suite's [backup.migrations] metric. *)
val migrations : t -> int

(** [copy_matches t ~main ~off] — does the resident copy for the range at
    [off] currently equal the main heap's bytes? [None] when absent
    (dynamic backups). [len] defaults to the resident copy's length
    (dynamic) or 64 bytes (full). Test/verification helper. *)
val copy_matches : ?len:int -> t -> main:Kamino_nvm.Region.t -> off:int -> bool option

(** Debug/test introspection of the dynamic mapping:
    [(main_off, slot_off, len)] triples, sorted. Empty for full backups. *)
val dump_mapping : t -> (int * int * int) list

(** [check_resident t] — the dynamic backup's DRAM invariant: the resident
    map and the look-up table hold the same keys with the same packed
    value each, and every bucket a node remembers is the table's bucket
    holding its key. Cost-free. [Ok ()] for full backups. *)
val check_resident : t -> (unit, string) result
