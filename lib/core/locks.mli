(** Volatile object-granularity read-write lock table.

    As in the paper, locks live in volatile memory (write intents in the
    persistent log are enough to rebuild what recovery needs). The table
    serves two purposes:

    - {e virtual-time contention}: executions are serial at the data level
      but overlapped in virtual time; each lock remembers when its last
      writer/readers release, and an acquire advances the acquiring client's
      clock past those times. In Kamino-Tx a writer's release time is the
      instant the backup applier finishes propagating the transaction, which
      is precisely how dependent transactions pay for backup catch-up while
      independent transactions proceed immediately;
    - {e active-transaction bookkeeping}: the set of keys held by the
      currently executing transaction, which the dynamic backup's LRU must
      never evict ("pending objects are never candidates for eviction").

    Lock keys are NVM byte offsets: an object's extent start, or a metadata
    word's offset. *)

type t

type key = int

(** [create ?shards ()] builds a lock table striped into [shards]
    (default 16) independent hash tables. A key's shard is selected from
    its offset with the low 6 bits dropped, so the words of one cache line
    land together while distinct objects spread across shards. *)
val create : ?shards:int -> unit -> t

val shard_count : t -> int

(** [acquire_write t key ~now ~cost_ns] returns the virtual time at which
    the caller actually holds the write lock: [max now writer_release
    reader_release] plus [cost_ns] (but see {!hold_writes}). Marks [key] as
    held by the active transaction. *)
val acquire_write : t -> key -> now:int -> cost_ns:float -> int

(** [acquire_read t key ~now ~cost_ns] returns the time at which the read
    lock is held: [max now writer_release] plus [cost_ns] (but see
    {!hold_writes}). *)
val acquire_read : t -> key -> now:int -> cost_ns:float -> int

(** {2 Entry handles}

    A lock acquisition resolves the key to its table entry once; callers
    that will release the same lock (and stamp its applier task) later in
    the transaction can keep the handle and skip the re-hash on every
    subsequent touch. Handles stay valid for the lifetime of the table
    they came from. *)

type entry

(** [entry_of t key] resolves (creating if absent) the entry for [key]. *)
val entry_of : t -> key -> entry

(** Entry-handle variants of the key-based operations above. The [t]
    parameter on the acquires is for the wait statistics only. *)

val acquire_write_e : t -> entry -> now:int -> cost_ns:float -> int

val acquire_read_e : t -> entry -> now:int -> cost_ns:float -> int

val release_write_e : entry -> at:int -> unit

val release_read_e : entry -> at:int -> unit

val last_writer_task_e : entry -> int

val set_last_writer_task_e : entry -> int -> unit

(** [release_writes t keys ~at] records that the write locks on [keys] are
    released at virtual time [at] and clears active-transaction ownership. *)
val release_writes : t -> key list -> at:int -> unit

(** [release_reads t keys ~at] records read-lock releases. *)
val release_reads : t -> key list -> at:int -> unit

(** [hold_writes t keys] keeps the write locks held open-endedly (the chain
    head holding locks until the tail's acknowledgment arrives, whose time
    is unknown yet). The prior release time is remembered.

    An acquire on a key held this way does {e not} wait for the eventual
    release: it counts one {!wait_events}, adds nothing to {!waits}, and
    returns [now] without charging [cost_ns]. So a dependent write at an
    [Kamino_chain.Async_chain] head does not wait for the tail ack
    today. *)
val hold_writes : t -> key list -> unit

(** [release_held_writes t keys ~at] ends an open-ended hold: the locks
    release at [max at previous_release] (e.g. the later of the tail ack
    and the backup applier's finish). *)
val release_held_writes : t -> key list -> at:int -> unit

(** [held_by_active_tx t key] — true between [acquire_write] and the
    matching [release_writes]. *)
val held_by_active_tx : t -> key -> bool

(** [wait_until t ~now until] is [max now until], counted in {!waits}
    and {!wait_events} as a wait when [until > now]. No acquisition is
    charged or counted: for a wait on something other than a table lock
    (the allocator's volatile mutex that [Engine.reserve] models). *)
val wait_until : t -> now:int -> int -> int

(** [last_writer_task t key] / [set_last_writer_task t key id] track the id
    of the most recent backup-applier task covering [key], so lock
    acquisition can force the applier to catch up on exactly that object. *)
val last_writer_task : t -> key -> int

val set_last_writer_task : t -> key -> int -> unit

(** [waits t] is the cumulative virtual nanoseconds clients spent blocked on
    locks, and [wait_events t] how many acquisitions blocked — the benches
    report these for the dependent-transaction experiments. *)
val waits : t -> int

val wait_events : t -> int

(** Acquisitions (read or write) that charged their [cost_ns]: every one
    but those that met an open-ended {!hold_writes} hold. With no wait,
    each advances the acquirer's clock by exactly [int_of_float cost_ns]. *)
val acquisitions : t -> int

val reset_stats : t -> unit
