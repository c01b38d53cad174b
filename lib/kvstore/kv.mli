(** Transactional key-value store: the system under test in the paper's
    evaluation (§7).

    A persistent B+Tree maps integer keys to value objects; every operation
    is one engine transaction, so the store is atomic and durable under
    every engine kind. Values are byte strings up to the store's
    [value_size] (the paper uses 1 KB values over 10 M keys).

    Reads take a read lock on the value object — under Kamino-Tx a read of
    a {e pending} object (one whose committed update has not yet reached
    the backup) blocks until the backup catches up, exactly per the paper's
    dependent-transaction rule. *)

type t

(** [create engine ~value_size ~node_size] formats a fresh store in the
    engine's heap and anchors it at the heap root. *)
val create : Kamino_core.Engine.t -> value_size:int -> node_size:int -> t

(** [reattach engine] re-binds to the store after [Engine.recover]. *)
val reattach : Kamino_core.Engine.t -> t

val engine : t -> Kamino_core.Engine.t

(** Number of keys present. *)
val size : t -> int

(** [put t key value] inserts or overwrites. Overwrites update the value
    object in place (one object write intent); inserts allocate a value
    object and update the index. An insert reserves its value object
    ({!Kamino_core.Engine.reserve}) before it declares the index leaf and
    publishes it after, so the allocator's search, which waits only for
    the allocator's volatile mutex, is not part of the leaf's lock hold.
    Raises [Invalid_argument] if the value exceeds
    [value_size]. *)
val put : t -> int -> string -> unit

(** {1 Transaction-scoped variants}

    The plain operations open one transaction each. Replicated state
    machines need to combine a store mutation with their own bookkeeping
    (e.g. the last-executed sequence number) atomically; these variants run
    inside a caller-owned transaction. *)

val put_tx : Kamino_core.Engine.tx -> t -> int -> string -> unit

val delete_tx : Kamino_core.Engine.tx -> t -> int -> bool

(** [rmw_tx tx t key f] — applies [f] to the current value ([""] when the
    key is absent, inserting the result the way {!put} inserts). *)
val rmw_tx : Kamino_core.Engine.tx -> t -> int -> (string -> string) -> unit

(** [get t key] reads the committed value: its length word and bytes in
    one load. Raises [Kamino_nvm.Region.Corrupt] when the value's length
    word exceeds [value_size] or is negative (a corrupt image). *)
val get : t -> int -> string option

(** [snapshot_get t key] is a read-only transaction served from the
    backup image at the applier's published watermark
    ({!Kamino_core.Engine.read_tx}): it sees the store's state at some
    committed prefix, takes no locks, never joins the dependent-wait
    class and never perturbs a writer. Falls back to the locked {!get}
    (behind the same API, counted as [snapshot.fallbacks]) when the
    engine cannot serve snapshots — no full backup, or the store's
    creating transaction has not propagated yet, or the value's length
    word in the backup image is out of range. [clock] charges the
    snapshot's loads to a dedicated reader clock. [None] can mean
    "absent at the watermark" even while a concurrent insert has already
    committed: that is the documented staleness. *)
val snapshot_get : ?clock:Kamino_sim.Clock.t -> t -> int -> string option

(** [delete t key] removes the binding and frees the value object;
    returns whether the key was present. *)
val delete : t -> int -> bool

(** [read_modify_write t key f] implements YCSB workload F's RMW op in one
    transaction; returns false if the key is absent. *)
val read_modify_write : t -> int -> (string -> string) -> bool

(** [exists t key] — index-only lookup, no locks. *)
val exists : t -> int -> bool

(** [iter t f] visits committed bindings in key order. *)
val iter : t -> (int -> string -> unit) -> unit

(** [range t ~lo ~hi] returns committed bindings with [lo <= key <= hi] in
    key order (a YCSB-style scan). *)
val range : t -> lo:int -> hi:int -> (int * string) list

(** [scan t ~lo ~count f] visits up to [count] committed bindings starting
    at the first key [>= lo], in ascending key order, and returns the
    number visited — the YCSB-E range query. Charged cost is
    O(tree depth + count), independent of the table size. *)
val scan : t -> lo:int -> count:int -> (int -> string -> unit) -> int

(** [load t ~count ~key ~value] bulk-loads [count] records: keys
    [key 0 .. key (count-1)] (which must be strictly increasing and exceed
    every key already present) with values [value i]. Runs as a sequence
    of transactions, each appending whole index leaves
    ({!Kamino_index.Btree.append_sorted}) — O(n) total index work, the
    only way a million-record table populates within budget. *)
val load : t -> count:int -> key:(int -> int) -> value:(int -> string) -> unit

(** Sync index-shape gauges ([btree.depth]) into the engine's metrics
    registry. Reads only the cost-free probe path: calling it never moves
    the simulated clock. *)
val sync_gauges : t -> unit

(** [put_aborted t key value] runs the put transaction and aborts it just
    before commit — the store is unchanged. Exercises the abort paths
    (local-only at a chain head). Raises [Failure] on engines that cannot
    abort. *)
val put_aborted : t -> int -> string -> unit

(** Persistent pointer of a key's value object, for white-box tests. *)
val value_ptr : t -> int -> Kamino_heap.Heap.ptr option

(** Structural validation of index + values, for tests. *)
val validate : t -> (unit, string) result
