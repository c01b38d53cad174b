(** The dynamic backup's resident map: a volatile least-recently-used
    queue with one node per resident copy.

    Each node carries the copy's packed slot word (the look-up table's
    value for the key) and the {!Phash} bucket where the table published
    it, so a hit, a propagation or a roll-back reads the node and never
    probes the table, and an eviction tombstones the remembered bucket
    ({!Phash.take_at}). Recency orders the nodes by update (§6.4). Purely
    volatile: after a crash it is rebuilt from the persistent {!Phash},
    the source of truth for which copies exist.

    Eviction skips keys the caller marks as locked: "locked objects are
    never evicted to ensure safety, that is pending objects are never
    candidates for eviction". *)

type t

type node

(** [create ?size_hint ()] — [size_hint] pre-sizes the internal key table
    (e.g. to the backup table's capacity) so large reattaches avoid
    rehashing cascades. *)
val create : ?size_hint:int -> unit -> t

val length : t -> int

(** [find t key] is [key]'s node. Raises [Not_found] when absent; the
    lookup allocates nothing. *)
val find : t -> int -> node

(** [add t key ~slot ~bucket] inserts [key], which must be absent, as
    most-recently-used. *)
val add : t -> int -> slot:int -> bucket:int -> unit

val key : node -> int

(** The copy's packed slot word. *)
val slot : node -> int

(** The table bucket holding the entry. *)
val bucket : node -> int

(** [touch t n] moves [n] to most-recently-used. *)
val touch : t -> node -> unit

(** [remove t n] drops [n], which must be in [t]. *)
val remove : t -> node -> unit

(** [evict_candidate t ~locked] returns the least-recently-used node whose
    key [locked] reports false, without removing it. [None] if every
    resident key is locked (or the queue is empty). *)
val evict_candidate : t -> locked:(int -> bool) -> node option

(** [iter t f] visits nodes from least to most recently used. [f] may
    remove the node it is given. *)
val iter : t -> (node -> unit) -> unit
