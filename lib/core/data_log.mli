(** Persistent data log: the storage behind the two copying baselines.

    Unlike the intent log, entries here carry {e data}. The same arena
    implements both baselines the paper compares against:

    - {b undo logging} (NVML semantics): [add] snapshots the object's
      current bytes before the transaction edits it in place; on abort or
      crash the snapshot is copied back;
    - {b copy-on-write}: [add] creates a working copy; the transaction's
      writes are redirected into the copy; on commit the copies are applied
      to the originals (a redo log, NVM-CoW style), on abort they are
      discarded.

    Either way the copy is created {e in the critical path} — the cost
    Kamino-Tx exists to remove. Every [add] charges allocator, indexing and
    copy costs, and the arena is persisted with a single flush+fence barrier
    before the first dependent write, mirroring the intent log discipline.

    Crash safety uses the same torn-record defence as the intent log:
    per-entry checksums keyed by the transaction id (over header {e and}
    payload bytes), and an end-of-transaction header reset whose single-line
    flush is atomic. *)

type t

type phase = Idle | Running | Applying

(** When an entry's payload is copied back over the main heap:
    [On_abort] for undo-style snapshots (also used by the CoW engine for
    fresh and freed extents, which are edited in place), [On_commit] for CoW
    working copies (redo-style). Recovery applies [On_abort] entries of a
    [Running] record and [On_commit] entries of an [Applying] record. *)
type replay = On_abort | On_commit

type entry = { off : int; len : int; payload_off : int; replay : replay }

val required_size : arena_bytes:int -> int

val format : Kamino_nvm.Region.t -> t

(** Raises [Region.Corrupt] on a bad magic word. *)
val open_existing : Kamino_nvm.Region.t -> t

(** [begin_tx t ~tx_id] starts building a record. The header becomes durable
    at the first {!barrier}. Raises [Failure] if a transaction is already
    active. *)
val begin_tx : t -> tx_id:int -> unit

(** [add ?over t ~off ~len ~replay ~src] appends an entry covering
    main-heap range [off,len] and fills its payload from region [src] (a
    snapshot for undo, the initial working copy for CoW). Where an entry
    of [over] (this transaction's, in order; default none) overlaps the
    range, the payload takes that entry's bytes instead: a CoW working
    copy starts from the transaction's view. The fill is charged as one
    copy of [len] bytes either way. Returns the entry. Raises [Failure]
    if the arena is exhausted. *)
val add :
  ?over:entry list -> t -> off:int -> len:int -> replay:replay -> src:Kamino_nvm.Region.t -> entry

(** [payload_write] / [payload_read]: access an entry's payload through the
    log region — the CoW engine redirects transaction reads and writes
    here. Offsets are relative to the covered main-heap range. *)
val payload_write_bytes : t -> entry -> int -> bytes -> unit

val payload_write_string : t -> entry -> int -> string -> unit

val payload_write_int64 : t -> entry -> int -> int64 -> unit

val payload_write_int : t -> entry -> int -> int -> unit

val payload_write_byte : t -> entry -> int -> int -> unit

val payload_read_bytes : t -> entry -> int -> int -> bytes

val payload_read_int64 : t -> entry -> int -> int64

val payload_read_int : t -> entry -> int -> int

val payload_read_byte : t -> entry -> int -> int

(** [reseal t entry] recomputes the entry's checksum after its payload was
    modified (CoW writes). Cheap; durable at the next {!barrier}. *)
val reseal : t -> entry -> unit

(** [barrier t] persists everything appended or modified since the last
    barrier (one flush batch + one fence). *)
val barrier : t -> unit

(** [mark_applying t] durably switches the record to the [Applying] phase —
    the CoW redo point: after this, recovery re-applies the copies. *)
val mark_applying : t -> unit

(** [finish t] ends the transaction: resets and persists the header
    (single-line atomic flush) and recycles the arena. *)
val finish : t -> unit

(** [active_entries t] lists the current transaction's entries. *)
val active_entries : t -> entry list

(** {1 Recovery} *)

(** Raises [Region.Corrupt] on a phase word outside [0..2]. *)
val phase : t -> phase

val tx_id : t -> int

(** [recover_entries t] returns the durable, checksum-valid entries of the
    interrupted transaction (possibly fewer than were added, never torn). *)
val recover_entries : t -> entry list

(** [apply_entry t entry ~dst] copies the entry's payload back over the
    main-heap range in [dst] (undo roll-back, or CoW redo). The caller
    persists [dst]. *)
val apply_entry : t -> entry -> dst:Kamino_nvm.Region.t -> unit

(** Cumulative count of entries ever created — the "copies made in the
    critical path" metric reported by the ablation benches. *)
val entries_created : t -> int
