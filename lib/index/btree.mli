(** Persistent B+Tree over the transactional engine.

    The index behind the evaluation's key-value store (§7): keys are 63-bit
    integers, values are persistent pointers. Nodes are heap objects
    modified through engine transactions, so every structural change
    (insert, split, delete, merge) is atomic under every engine kind, and
    crash-recovery tests can slam the tree with torn writes.

    The caller owns the transaction: [insert]/[delete] take a [tx] and
    declare intents on exactly the nodes they modify, which is what makes
    the undo-logging baseline expensive (a split undo-logs whole 4 KB
    nodes) and Kamino-Tx cheap (it logs three 24-byte intents).

    A tree is named by the pointer of its {e descriptor object}, typically
    stored as the heap root. The descriptor holds the root pointer and the
    node capacity. It keeps no key count: a count bumped by every insert
    and delete would put the descriptor into every write set, so only a
    root split or collapse writes it. *)

type t

(** [create tx ~node_size] allocates an empty tree (descriptor + root leaf)
    and returns it. [node_size] bounds the node object size; the branching
    factor follows from it (e.g. 4096 -> 254 keys/node). *)
val create : Kamino_core.Engine.tx -> node_size:int -> t

(** [create_sizes ~node_size] — the allocations [create] makes, in order
    (descriptor, root leaf), for a caller that folds them into its own
    {!Kamino_core.Engine.alloc_many}; [create_in] then formats the tree in
    the returned objects. *)
val create_sizes : node_size:int -> int list

val create_in :
  Kamino_core.Engine.tx -> desc:Kamino_heap.Heap.ptr -> root:Kamino_heap.Heap.ptr -> t

(** [descriptor t] is the tree's persistent handle, e.g. to store as heap
    root. *)
val descriptor : t -> Kamino_heap.Heap.ptr

(** [attach engine ptr] re-attaches to an existing tree after reopen. *)
val attach : Kamino_core.Engine.t -> Kamino_heap.Heap.ptr -> t

(** [find t key] — committed-state lookup (no transaction, no locks). *)
val find : t -> int -> Kamino_heap.Heap.ptr option

(** [find_tx tx t key] — lookup inside a transaction (sees its writes). *)
val find_tx : Kamino_core.Engine.tx -> t -> int -> Kamino_heap.Heap.ptr option

(** [find_snapshot snap t key] — lookup entirely inside a backup snapshot
    ({!Kamino_core.Engine.read_tx}): root, nodes and the returned value
    pointer all come from the backup image, one prefix-consistent tree at
    the applier's watermark. Zero locks. The returned pointer addresses
    the {e snapshot} image — dereference it with [snapshot_read_*]. *)
val find_snapshot :
  Kamino_core.Engine.snapshot -> t -> int -> Kamino_heap.Heap.ptr option

(** [insert tx t key value] adds or replaces the mapping; returns the
    previous value if the key was present. *)
val insert : Kamino_core.Engine.tx -> t -> int -> Kamino_heap.Heap.ptr -> Kamino_heap.Heap.ptr option

(** [delete tx t key] removes the mapping; returns the removed value. *)
val delete : Kamino_core.Engine.tx -> t -> int -> Kamino_heap.Heap.ptr option

(** {2 Plan-then-apply}

    [insert] and [delete] are [seek], then a declare, then the mutation at
    the cursor. A caller that has its own objects to declare and allocate
    runs the three steps itself, so that every intent is declared before
    the first write and one barrier covers the whole transaction
    (DESIGN.md §18). Only splits and merges, which find their nodes as
    they go, still declare mid-mutation. *)

(** The leaf position of one key and its ancestor path, from a single
    descent. It stays valid until the tree is modified or the cursor is
    sought again. *)
type cursor

(** [cursor ()] is an empty cursor, scratch for {!seek_into}. *)
val cursor : unit -> cursor

(** [seek_into tx t c key] descends once to [key]'s leaf and records the
    position in [c], in place. Once [c] has held a path as deep as the
    tree it allocates nothing, so a caller that keeps one cursor per
    handle looks keys up allocation-free and, on a miss, inserts at the
    same cursor without a second descent. *)
val seek_into : Kamino_core.Engine.tx -> t -> cursor -> int -> unit

(** [seek tx t key] is {!seek_into} on a fresh cursor. *)
val seek : Kamino_core.Engine.tx -> t -> int -> cursor

(** The value bound to the cursor's key, [Heap.null] if none. Values are
    persistent pointers, never null. *)
val found : cursor -> Kamino_heap.Heap.ptr

(** [declare_insert tx c] declares the leaf: everything a split-free
    {!insert_at} writes. *)
val declare_insert : Kamino_core.Engine.tx -> cursor -> unit

(** [insert_at tx t c value] is {!insert} at [c], whose intents
    {!declare_insert} already declared. *)
val insert_at :
  Kamino_core.Engine.tx -> t -> cursor -> Kamino_heap.Heap.ptr -> Kamino_heap.Heap.ptr option

(** [declare_delete tx c] declares the leaf when the key is present:
    everything a merge-free {!delete_at} writes. *)
val declare_delete : Kamino_core.Engine.tx -> cursor -> unit

(** [delete_at tx t c] is {!delete} at [c], whose intents
    {!declare_delete} already declared. *)
val delete_at : Kamino_core.Engine.tx -> t -> cursor -> Kamino_heap.Heap.ptr option

(** [append_sorted tx t entries] bulk-appends strictly increasing
    [(key, value)] pairs, all greater than the tree's current maximum key.
    Entries land as whole leaves stitched onto the rightmost spine — one
    separator insertion per leaf instead of one full descent per key — so
    sorted loading is O(n) in node writes. A tail too small to stand as a
    valid leaf is balanced into two near-halves (or falls back to point
    inserts), so the tree never holds an underfull non-root leaf.
    Raises [Invalid_argument] on unsorted input or keys below the current
    maximum. *)
val append_sorted :
  Kamino_core.Engine.tx -> t -> (int * Kamino_heap.Heap.ptr) array -> unit

(** Maximum keys per node (the branching factor implied by [node_size]).
    Loaders use it to size per-transaction batches. *)
val branching : t -> int

(** Number of keys in the tree: O(leaves) introspection, a walk of the
    leaf chain through the cost-free probe path (like {!depth}), so it
    charges nothing. *)
val cardinal : t -> int

(** [iter t f] visits all bindings in ascending key order (committed
    state). *)
val iter : t -> (int -> Kamino_heap.Heap.ptr -> unit) -> unit

(** [range t ~lo ~hi f] visits bindings with [lo <= key <= hi]. *)
val range : t -> lo:int -> hi:int -> (int -> Kamino_heap.Heap.ptr -> unit) -> unit

(** [fold_range t ~lo ~hi ~init ~f] folds [f] over committed bindings with
    [lo <= key <= hi] in ascending key order — the in-order range-scan
    iterator behind [readdir] and YCSB-E style scans. The traversal
    descends once to the first leaf holding a key [>= lo], then walks the
    leaf chain and stops at the first key [> hi]. *)
val fold_range :
  t -> lo:int -> hi:int -> init:'a -> f:('a -> int -> Kamino_heap.Heap.ptr -> 'a) -> 'a

(** [fold_range_tx tx t ~lo ~hi ~init ~f] — the same scan inside a
    transaction (sees the transaction's own writes). *)
val fold_range_tx :
  Kamino_core.Engine.tx ->
  t ->
  lo:int ->
  hi:int ->
  init:'a ->
  f:('a -> int -> Kamino_heap.Heap.ptr -> 'a) ->
  'a

(** [iter_nodes t f] calls [f] on every heap object the tree owns — the
    descriptor, every internal node and every leaf (committed state).
    Exists for whole-heap accounting oracles (fsck-style checks that
    every allocated object is referenced by exactly one structure). *)
val iter_nodes : t -> (Kamino_heap.Heap.ptr -> unit) -> unit

(** [destroy_empty tx t] transactionally frees an {e empty} tree — the
    descriptor and its single root leaf. Raises [Invalid_argument] if the
    tree still holds keys (the caller owns emptying it first). The handle
    must not be used afterwards. *)
val destroy_empty : Kamino_core.Engine.tx -> t -> unit

(** [declare_destroy_empty tx t] declares the frees {!destroy_empty} makes
    (see {!Kamino_core.Engine.declare_free}). *)
val declare_destroy_empty : Kamino_core.Engine.tx -> t -> unit

(** [min_key t] / [max_key t] — extremes, [None] when empty. *)
val min_key : t -> int option

val max_key : t -> int option

(** [scan t ~lo ~count f] visits up to [count] committed bindings with
    key [>= lo] in ascending order (the YCSB-E range query) and returns
    the number visited. Charged cost is O(depth + count) — the walk stops
    at the count bound, never the end of the leaf chain. Past the descent,
    each leaf costs its header loads plus two run loads: its visited keys
    as one load and their pointers as another. *)
val scan : t -> lo:int -> count:int -> (int -> Kamino_heap.Heap.ptr -> unit) -> int

(** Height of the tree (1 = root is a leaf). *)
val height : t -> int

(** [depth t] — the tree's height, read through the cost-free probe path:
    sampling it (e.g. from a metrics registry) charges nothing to the NVM
    cost model, so gauges cannot perturb bit-identity oracles. *)
val depth : t -> int

(** Cost-free structural summary: node counts, total keys, and leaf
    occupancy ([keys / (leaf_nodes * branching)]). The walk touches every
    node through the probe path — zero charged reads. *)
type stats = {
  depth : int;
  internal_nodes : int;
  leaf_nodes : int;
  keys : int;
  occupancy : float;
}

val stats : t -> stats

(** [validate t] checks the B+Tree structural invariants on committed
    state: key ordering within and across nodes, uniform leaf depth,
    minimum occupancy of non-root nodes, and that the leaf chain visits
    exactly the tree's leaves in key order. *)
val validate : t -> (unit, string) result
