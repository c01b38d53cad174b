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
    a tombstone. Values are non-negative: [-1] reports absence. *)

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

(** A persisted table image that this build cannot decode. *)
exception Corrupt of string

(** [open_existing region] re-attaches after a crash and finishes an
    interrupted resize. Raises {!Corrupt}, before writing anything, on a
    bad magic word, a state word whose capacity is not a power of two of
    at least 16 (doubled once per completed resize) or whose table chain
    overruns the region, or an armed migration cursor outside
    [[0, capacity]]. *)
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

(** [insert t ~key ~value] adds or overwrites. Raises {!Overload} when the
    table is full and the region has no room to grow it. A new entry's
    value word is persisted, then its key word is stored and flushed with
    no fence: the entry is durable at the caller's next fence, and a
    crash before it leaves the entry absent, never half-published. Lines
    the caller flushed before the insert are durable before the entry can
    be visible. An overwrite persists the value word in place.
    Right after a {!find_or} miss of the same key, with no insert in
    between, the insert publishes at the bucket that probe found: no
    second probe and no index charge, unless a resize is migrating or
    this insert arms one. Any other insert may reuse a bucket a {!take}
    tombstoned, so a fence must separate the two. *)
val insert : t -> key:int -> value:int -> unit

val find : t -> key:int -> int option

(** [find_or t ~key ~default] — allocation-free {!find} for hot paths
    (the backup consults the table on every transactional write). A miss
    remembers where an {!insert} of [key] would go. *)
val find_or : t -> key:int -> default:int -> int

(** [remove t ~key] deletes the mapping if present, durably (a {!take}
    and a fence); returns whether it was. *)
val remove : t -> key:int -> bool

(** [take t ~key] — {!find_or} and a removal in one probe and one index
    charge: returns the mapped value and tombstones the entry, or returns
    [-1] (and writes nothing) when [key] is absent. The tombstone is
    flushed with no fence: it is durable at the caller's next fence, and
    until then a crash may leave the entry live. So the caller fences
    before it reuses what the entry named, and before any insert that
    could reuse the bucket (every insert but the hinted one of a
    {!find_or} miss made before the take). The backup evicts its victim
    with it. *)
val take : t -> key:int -> int

(** [iter t f] calls [f ~key ~value] for every live entry. *)
val iter : t -> (key:int -> value:int -> unit) -> unit
