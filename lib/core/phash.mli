(** Persistent open-addressing hash table with crash-safe incremental
    resize.

    Kamino-Tx-Dynamic's "backup look-up table": maps a main-heap offset to
    the offset of its copy in the partial backup region. The mapping must be
    durable — after a crash, recovery locates the roll-back copies through
    it — so a new entry is published value-then-key: the value word is
    persisted, then the key word is stored and flushed. The key store is
    the atomic commit point (8-byte aligned), so a torn insert leaves
    either no entry or a complete one, never a key pointing at a garbage
    value. The key word and a removal's tombstone carry no fence of their
    own: they are durable at the caller's next fence (see {!insert} and
    {!take}).

    The table is the recovery truth, not the lookup path: the dynamic
    backup keeps a DRAM map of its entries ({!Lru}) and probes the table
    only to publish one. {!insert} returns the bucket it published at, and
    {!take_at} tombstones that bucket with no probe.

    When an insert would push the load factor past 7/8 and the region has
    room for the next table in the geometric chain, the table arms a 2x
    {e split-migration}: a handful of old buckets are copied per subsequent
    insert (each batch an idempotent, persisted unit), and one final
    persisted store of the packed state word swaps generations atomically.
    A crash at any point either replays the in-flight batch (insert-if-
    absent, so harmless) or finds the swap already durable. Regions sized
    with [required_size ~doublings:n] can absorb [n] such doublings;
    without headroom the table instead raises {!Overload} once genuinely
    full.

    Keys are positive integers (NVM offsets); 0 marks an empty bucket and -1
    a tombstone. Values are non-negative: [-1] reports absence. A bucket is
    named by its byte offset in the region. *)

type t

(** Raised by {!insert} when the table is full and cannot grow (no room in
    the region for the next table of the chain). *)
exception Overload of { capacity : int; count : int }

(** [required_size ~capacity] — [capacity] is rounded up to a power of two. *)
val required_size : capacity:int -> int

(** [chain_size ~capacity ~doublings] — region size with headroom for
    [doublings] incremental 2x resizes: the whole geometric chain
    [c0 + 2*c0 + ... + 2^doublings*c0] of tables.
    [chain_size ~doublings:0] = {!required_size}. *)
val chain_size : capacity:int -> doublings:int -> int

val format : Kamino_nvm.Region.t -> capacity:int -> t

(** [open_existing region] re-attaches after a crash and finishes an
    interrupted resize. Raises {!Kamino_nvm.Region.Corrupt}
    ([structure "Phash"], [off] at the failing word), before writing
    anything, on a bad magic word, a state word whose capacity is not a
    power of two of at least 16 (doubled once per completed resize) or
    whose table chain overruns the region, or an armed migration cursor
    outside [[0, capacity]]. *)
val open_existing : Kamino_nvm.Region.t -> t

(** Capacity of the {e active} table (grows across resizes). *)
val capacity : t -> int

val region : t -> Kamino_nvm.Region.t

(** Number of live entries (maintained volatilely, rebuilt on open). *)
val count : t -> int

(** Completed incremental resizes (the generation of the active table). *)
val migrations : t -> int

(** Whether a split-migration is currently in flight. *)
val resizing : t -> bool

(** [insert t ~key ~value] adds or overwrites, and returns the entry's
    bucket: where it now lives in the active table, or [-1] when a resize
    is migrating and the entry went to its target (a bucket of the active
    table goes stale when the resize completes). Raises {!Overload} when
    the table is full and the region has no room to grow it. A new
    entry's value word is persisted, then its key word is stored and
    flushed with no fence: the entry is durable at the caller's next
    fence, and a crash before it leaves the entry absent, never
    half-published. Lines the caller flushed before the insert are
    durable before the entry can be visible. An overwrite persists the
    value word in place. A new entry never takes a bucket tombstoned since
    the table's last fence (see {!fence}). *)
val insert : t -> key:int -> value:int -> int

val find : t -> key:int -> int option

(** [remove t ~key] deletes the mapping if present, durably (a {!take}
    and a fence); returns whether it was. *)
val remove : t -> key:int -> bool

(** [take t ~key] — a find and a removal in one probe and one index
    charge: returns the mapped value and tombstones the entry, or returns
    [-1] (and writes nothing) when [key] is absent. The tombstone is
    flushed with no fence: it is durable at the caller's next fence, and
    until then a crash may leave the entry live. So the caller fences
    before it reuses what the entry named. The table itself keeps the
    bucket from any new entry until its next fence. *)
val take : t -> key:int -> int

(** [take_at t ~key ~bucket] — {!take} at the bucket {!insert} returned
    for [key]: one load checks that the bucket still holds [key], a second
    reads the value, and the same tombstone and flush as {!take} follow,
    with no index charge. Falls back to {!take} while a resize is armed,
    when [bucket] lies outside the active table (it is [-1], or a resize
    completed since), or when the bucket holds another key. *)
val take_at : t -> key:int -> bucket:int -> int

(** [fence t] fences the table's region. Every tombstone written before it
    is durable, so its bucket may take a new entry again: the table
    forgets the buckets it tombstoned since its last fence. Callers that
    fence the table after a {!take} use it rather than a bare
    {!Kamino_nvm.Region.fence}, which would leave those buckets unused
    until the table's next fence. *)
val fence : t -> unit

(** [iter t f] calls [f ~key ~value ~bucket] for every live entry, with
    [bucket] as {!insert} reports it. Charged like the loads it makes. *)
val iter : t -> (key:int -> value:int -> bucket:int -> unit) -> unit

(** [entries t] — every live entry as [(key, value, bucket)], sorted, the
    set {!iter} visits. Cost-free: no simulated time, no counters. For
    oracles. *)
val entries : t -> (int * int * int) list
