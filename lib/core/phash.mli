(** Persistent open-addressing hash table of a fixed capacity.

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
    {!take_at} tombstones that bucket with no probe. Entries never move,
    so a bucket stays its entry's until the entry is taken.

    The capacity is fixed at {!format}. A full table raises {!Overload};
    the dynamic backup then evicts a resident and retries.

    Keys are positive integers (NVM offsets); 0 marks an empty bucket and -1
    a tombstone. Values are non-negative: [-1] reports absence. A bucket is
    named by its byte offset in the region. *)

type t

(** Raised by {!insert} when every bucket holds a live entry or a
    tombstone written since the table's last fence. *)
exception Overload of { capacity : int; count : int }

(** [required_size ~capacity] — the region size of a table of [capacity]
    buckets, rounded up to a power of two of at least 16. *)
val required_size : capacity:int -> int

val format : Kamino_nvm.Region.t -> capacity:int -> t

(** [open_existing region] re-attaches after a crash. Raises
    {!Kamino_nvm.Region.Corrupt} ([structure "Phash"], [off] at the
    failing word), before writing anything, on a bad magic word, or a
    state word that is not a power of two of at least 16 or whose buckets
    overrun the region. *)
val open_existing : Kamino_nvm.Region.t -> t

(** The number of buckets. *)
val capacity : t -> int

val region : t -> Kamino_nvm.Region.t

(** Number of live entries (maintained volatilely, rebuilt on open). *)
val count : t -> int

(** [insert t ~key ~value] adds or overwrites, and returns the bucket
    holding the entry. Raises {!Overload}, having written nothing, when
    the key is absent and no bucket is free. A new
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
    with no index charge. Falls back to {!take} when [bucket] is not a
    bucket of the table (say [-1]) or holds another key. *)
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
