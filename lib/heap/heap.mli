(** Persistent object heap over a simulated NVM region.

    The heap is the paper's "persistent heap manager": applications allocate
    and free objects, store native values and persistent pointers in them,
    and name one object as the root. An object is addressed by a [ptr] — the
    NVM offset of its payload; persistent pointers are just such offsets
    stored as int64 fields, so they remain valid across crashes and reopens.

    Allocator metadata (bump pointer, per-class free-list heads) lives in
    NVM and is modified {e through transactions}, exactly as in the paper:
    the heap itself performs raw writes, and the transaction engines declare
    write intents on the word ranges a {!reservation} / {!free_ranges}
    reports before invoking {!publish} / {!free}, so aborts and crashes
    roll the allocator back together with the data.

    Layout: a 512-byte metadata block (magic, version 2, size, root, bump
    pointer, one free-list head per size class) followed by the object
    area. Each object has a 16-byte header (capacity, then a flags word:
    1 allocated, 0 free) in front of its payload, and fits one size class:
    no object is larger than {!max_object_size}. *)

type t

(** A persistent pointer: the NVM offset of an object's payload.
    [null] (= 0) points nowhere. *)
type ptr = int

val null : ptr

(** Size classes available to the allocator, in bytes, ascending. Requests
    are rounded up to the next class: multiples of 16 from 32 to 112, then
    [b], [1.25b], [1.5b] and [1.75b] for every power of two [b] from 128 to
    131072, then {!max_object_size}. Above 128 B a request wastes at most
    20% of its class. *)
val size_classes : int array

(** Largest allocatable payload. *)
val max_object_size : int

(** [format region] initializes a fresh heap in [region] and persists the
    metadata block. Raises [Invalid_argument] if the region is too small. *)
val format : Kamino_nvm.Region.t -> t

(** [open_existing region] attaches to a previously formatted heap, e.g.
    after a crash. Raises [Kamino_nvm.Region.Corrupt] on a bad magic, a
    version other than this build's, a size word that disagrees with the
    region, a bump pointer outside [\[data_start, size\]], or a free-list
    head that is not null or a 16-aligned object of its class inside the
    data area. *)
val open_existing : Kamino_nvm.Region.t -> t

(** [class_of_size size] — the index in {!size_classes} of the smallest
    class holding [size] bytes, computed in O(1). Raises
    [Invalid_argument] unless [0 < size <= max_object_size]. *)
val class_of_size : int -> int

(** [is_class_size n] — whether [n] is an entry of {!size_classes}, in
    O(1). *)
val is_class_size : int -> bool

(** {1 Allocation} *)

(** A contiguous NVM byte range, as reported to transaction engines for
    write-intent declaration. *)
type range = { off : int; len : int }

(** {2 Reserve, then publish}

    PMDK's [pmemobj_reserve] / [pmemobj_tx_publish] split, and the heap's
    one way to allocate: the allocator's search runs first and stores
    nothing, so an engine can run it before its transaction takes any
    lock; only the publication stores. *)

(** A volatile allocation plan: the [sizes] asked for, the pointers
    [ptrs] they will get, in order, and the [ranges] publishing them
    modifies (per object, its allocator word, then its extent: the
    class's free-list head on reuse, the bump word otherwise). It holds no
    NVM state: dropping it (an abort, a crash) leaves nothing to undo. *)
type reservation = private { sizes : int list; ptrs : ptr list; ranges : range list }

(** [reserve t sizes] runs the allocator's search for [sizes] and
    charges [alloc_ns] once per object. It stores nothing. Raises
    [Invalid_argument] unless [0 < size <= max_object_size] and
    [Out_of_memory] when the heap cannot hold the objects all together,
    both before any charge. *)
val reserve : t -> int list -> reservation

(** [publish t r] carves [r]'s objects, in order: it stores each one's
    bump word or free-list head, its header and its zeroed payload, and
    charges no second [alloc_ns]. The heap must not have allocated or
    freed since [r] was made; engines check that before they declare
    anything. Raises [Invalid_argument] when an object it carves is not
    the one [r] predicted. *)
val publish : t -> reservation -> unit

(** [free_ranges t p] returns the ranges {!free} will modify: [p]'s
    class free-list head word, then [p]'s extent. *)
val free_ranges : t -> ptr -> range list

(** [free_head_word extent] — the offset of the free-list head word
    {!free} updates when it frees the object whose extent is [extent].
    Besides that word, [free] stores only the header flags word and the
    free-list link, the 16 bytes at [p-8 .. p+8) around the payload
    pointer [p]. Pure: reads no NVM, charges nothing. *)
val free_head_word : range -> int

(** [free t p] returns [p]'s object to its size-class free list.
    Raises [Invalid_argument] if [p] is not an allocated object (its
    header flags word is not 1). *)
val free : t -> ptr -> unit

(** [capacity t p] is the usable payload size of object [p]. *)
val capacity : t -> ptr -> int

(** [extent t p] is the byte range covering [p]'s header and payload — what
    engines copy when rolling the object forward or back. *)
val extent : t -> ptr -> range

(** [is_allocated t p] — whether [p] is an object inside the bump
    pointer whose header flags word is 1. *)
val is_allocated : t -> ptr -> bool

(** {1 Root object} *)

val root : t -> ptr

(** [set_root t p] updates and persists the root pointer. The root pointer
    update is a single 8-byte atomic store, so it is crash-safe by itself. *)
val set_root : t -> ptr -> unit

(** [root_range t] is the range engines declare when a transaction changes
    the root. *)
val root_range : t -> range

(** {1 Introspection} *)

(** Occupancy snapshot, from a walk of every object header through the
    cost-free [Region.peek_*] reads: reading stats never charges simulated
    cost, so metric gauges built on it cannot perturb the bit-identity
    oracles. O(objects); callers read it a few times per run. *)
type stats = {
  segments_live : int;  (** 1 MiB segments in which a live extent starts *)
  live_objects : int;
  live_bytes : int;  (** sum of live payload capacities *)
}

val stats : t -> stats

(** [data_start t] is the offset where the object area begins; the
    bytes below it are heap metadata. *)
val data_start : t -> int

(** [validate t] walks every object header and checks structural invariants
    (capacity is a known class, flags are 0/1, extents chain exactly to the
    bump pointer, free lists only contain free objects). Returns an error
    description instead of raising, so recovery tests can assert on it. *)
val validate : t -> (unit, string) result

(** [iter_objects t f] calls [f ptr ~capacity ~allocated] for every object
    slot in address order. *)
val iter_objects : t -> (ptr -> capacity:int -> allocated:bool -> unit) -> unit
