(** Persistent intent log — the paper's Log Manager (§6.2, Figure 11).

    The log records {e which} byte ranges each transaction intends to modify
    (fixed-size entries holding offsets, not data), plus the transaction
    outcome. That is all Kamino-Tx needs: roll-back copies come from the
    backup, roll-forward copies from the main heap. Entries for one
    transaction are appended to a slot and made durable with a single
    flush+fence barrier before the first in-place data write they cover
    (the "minimum number of cache flushes" design).

    Storage layout mirrors Figure 11: a 64-byte header (magic, checksum,
    max_user_threads, max_tx_size, log size, state), per-thread scratchpads,
    and the slotted log data area. Slot states: [Free] / [Running] /
    [Committed] / [Aborted]. Recovery scans all non-free slots in
    transaction-id order.

    A slot's state word is one aligned 8-byte word: the state in its low
    two bits and, for a [Committed] word written by {!seal}, a nonzero
    60-bit checksum of the write set above them (DESIGN.md par25). *)

type t

type slot

type state = Free | Running | Committed | Aborted

type intent = { off : int; len : int }

(** Sum of the lengths of [intents]. *)
val total_bytes : intent list -> int

(** [required_size ~max_user_threads ~max_tx_entries ~n_slots] is the number
    of NVM bytes a log with those parameters occupies. *)
val required_size : max_user_threads:int -> max_tx_entries:int -> n_slots:int -> int

val format :
  Kamino_nvm.Region.t ->
  max_user_threads:int ->
  max_tx_entries:int ->
  n_slots:int ->
  t

(** [open_existing region] re-attaches after a crash. Raises
    {!Kamino_nvm.Region.Corrupt} ([structure "Intent_log"], [off] at the
    failing word) on a bad magic word, a header checksum mismatch, a
    header whose slots overrun the region, or a slot state word that is
    negative or carries checksum bits on a state other than [Committed]
    (every slot's state is read here, before anything is written). *)
val open_existing : Kamino_nvm.Region.t -> t

(** [begin_record t ~tx_id] claims a free slot and writes its header
    ([Running], zero entries) without flushing. Returns [None] when every
    slot is occupied — the coordinator then drains the backup applier to
    reclaim one. *)
val begin_record : t -> tx_id:int -> slot option

(** [add_intent t slot intent] appends one entry (volatile until the next
    {!barrier}). Raises [Failure] if the slot is full ([max_tx_entries]). *)
val add_intent : t -> slot -> intent -> unit

(** [add_intent_merged t slot intent] appends [intent], but when it
    overlaps or is adjacent to the entry appended immediately before — and
    that entry is still unflushed — the two are merged in place into their
    exact union instead of consuming a new entry. Returns the entry as
    recorded and whether a merge (or containment skip) happened. The
    in-place rewrite is crash-safe precisely because the previous entry has
    not been covered by a {!barrier} yet: no data write has been issued
    under its protection, so a torn rewrite can at worst invalidate an
    entry whose bytes still hold only committed data. Never widens beyond
    the union — recovery relies on committed records being disjoint from
    the incomplete transaction's ranges. *)
val add_intent_merged : t -> slot -> intent -> intent * bool

(** [barrier t slot] makes the slot header and all entries appended since
    the previous barrier durable (one flush batch + one fence). Idempotent:
    does nothing when there is nothing unflushed. Must be called before the
    first data write that follows new intents. *)
val barrier : t -> slot -> unit

(** [flush t slot] writes back the slot header and the entries appended
    since the previous barrier without fencing them: they become durable
    at the next fence on the calling domain, whatever region it names.
    The next {!barrier} of [slot] fences even if nothing was appended
    since. Does nothing when there is nothing unflushed. *)
val flush : t -> slot -> unit

(** [mark t slot state] durably records the transaction outcome
    (flush of the header line + fence). *)
val mark : t -> slot -> state -> unit

(** [seal t slot ~main] is the one-fence commit mark. After the slot's
    {!barrier}, when hashing [main]'s bytes over the record's logged
    ranges costs less than a fence ({!Kamino_nvm.Cost_model.loads_beat_fence},
    one load per range), it hashes them ({!Kamino_nvm.Region.hash_range},
    in log order, charged as those loads), writes the state word as
    [Committed] with that checksum, flushes it without a fence and
    returns [true]: the caller's next fence makes the mark durable
    together with the write set, which it must flush first. Otherwise it
    writes nothing and returns [false], and the caller persists the write
    set and {!mark}s the slot. The ranges come from a volatile mirror of
    the entries, so the log is not read back. *)
val seal : t -> slot -> main:Kamino_nvm.Region.t -> bool

(** [commit_holds t slot ~main intents] — does the [Committed] record in
    [slot], whose entries {!intents} decoded as [intents], commit at
    recovery? [true] for a {!mark}ed word; for a {!seal}ed one, [true]
    iff its checksum equals the hash of [main]'s bytes over [intents]
    now. A crash before the seal's fence can persist the word without
    some of the write set's lines; such a record rolls back. *)
val commit_holds : t -> slot -> main:Kamino_nvm.Region.t -> intent list -> bool

(** [release t slot] marks the slot [Free] so it can be reused. Called after
    the coordinator has consumed the record (applied or rolled back). *)
val release : t -> slot -> unit

val slot_tx_id : t -> slot -> int

val slot_state : t -> slot -> state

val intents : t -> slot -> intent list

(** Number of currently free slots. *)
val free_slots : t -> int

(** Number of slots, free or not. Volatile: reads no NVM. *)
val slot_count : t -> int

(** [iter_records t f] calls [f slot tx_id state intents] for every non-free
    slot, ordered by ascending transaction id — the recovery scan. *)
val iter_records : t -> (slot -> int -> state -> intent list -> unit) -> unit

(** The log's NVM region (white-box tests corrupt it). *)
val region : t -> Kamino_nvm.Region.t

(** Highest transaction id present in any non-free slot, or 0. Recovery
    seeds the volatile transaction-id counter above it. *)
val max_tx_id : t -> int
