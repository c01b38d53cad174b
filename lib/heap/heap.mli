(** Persistent object heap over a simulated NVM region.

    The heap is the paper's "persistent heap manager": applications allocate
    and free objects, store native values and persistent pointers in them,
    and name one object as the root. An object is addressed by a [ptr] — the
    NVM offset of its payload; persistent pointers are just such offsets
    stored as int64 fields, so they remain valid across crashes and reopens.

    The paper's transactions allocate through NVML's heap, which keeps
    its free-space index in DRAM, rebuilds it from persistent chunk
    headers when a pool opens, and writes a transaction's allocations and
    frees into those headers through a redo log at commit. This heap
    keeps the split (a volatile bump cursor and free-extent heaps, object
    headers as the only persistent truth) but stores headers in place:
    the engines declare an object's extent before {!publish} or {!free}
    stores into its header, so an abort or a crash rolls the header back
    or forward with the data. No allocator word is shared between
    transactions.

    Layout: a 512-byte metadata block (magic, version 3, size, root)
    followed by the object area, a run of extents that ends at the first
    header whose capacity word is 0. Each object has a 16-byte header
    (capacity, then a flags word: 1 allocated, 0 free) in front of its
    payload, and fits one size class: no object is larger than
    {!max_object_size}. *)

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
    metadata block. [region] must be zero past the metadata block, as a
    new region is. Raises [Invalid_argument] if the region is too small. *)
val format : Kamino_nvm.Region.t -> t

(** [open_existing region] attaches to a previously formatted heap, e.g.
    after a crash, and rebuilds the cursor and the free extents with one
    charged walk of the extent headers. Raises
    [Kamino_nvm.Region.Corrupt] on a bad magic, a version other than this
    build's, a size word that disagrees with the region, or a header on
    the walk whose capacity is not a class size, whose extent overruns
    the region, or whose flags word is neither 0 nor 1. *)
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
    one way to allocate: the reservation claims objects from the volatile
    state and stores nothing, so an engine can run it before its
    transaction takes any lock; only the publication stores. *)

(** A claim on objects: their pointers [ptrs], in order, and their
    extents [ranges], which publishing them modifies; [reused] are those
    of [ranges] that the running transaction freed. [base] and [top] are
    the cursor before and after the claim. Nothing of it is in NVM:
    giving it back, or a crash, leaves nothing to undo. *)
type reservation = private {
  ptrs : ptr list;
  ranges : range list;
  reused : range list;
  base : int;
  top : int;
  mutable published : bool;
}

(** [reserve t sizes] claims one object per size: an extent of the class
    that the running transaction freed (the latest), else the class's
    highest free extent, else fresh space at the cursor, and charges [alloc_ns] per
    object. Raises [Invalid_argument] unless [0 < size <=
    max_object_size] and [Out_of_memory] when the objects do not fit
    together, both with nothing charged or claimed. *)
val reserve : t -> int list -> reservation

(** [publish t r] stores each of [r]'s headers (its capacity and flags
    1) and zeroes its payload, and charges no second [alloc_ns]. *)
val publish : t -> reservation -> unit

(** [give_back t r] returns [r]'s objects, newest reservation first and
    after any published header was rolled back: each extent to where it
    came from, fresh space to the cursor unless a later claim holds
    space above it. *)
val give_back : t -> reservation -> unit

(** [free t e] stores the flags word 0 of the object whose extent is
    [e], its only store, and keeps the extent for the running
    transaction, whose next claims of its class reuse it. Raises
    [Invalid_argument] if [e] is not an allocated object's extent. *)
val free : t -> range -> unit

(** [settle t ~rolled_back] ends the running transaction's frees. After
    a roll-back their headers say allocated again and they are dropped;
    otherwise the extents it did not reuse join their class's free
    extents. Reads no NVM, charges nothing. *)
val settle : t -> rolled_back:bool -> unit

(** [pending_frees t] — whether the running transaction freed an extent
    it has not reused. *)
val pending_frees : t -> bool

(** [capacity t p] is the usable payload size of object [p]. *)
val capacity : t -> ptr -> int

(** [extent t p] is the byte range covering [p]'s header and payload — what
    engines copy when rolling the object forward or back. *)
val extent : t -> ptr -> range

(** [is_allocated t p] — whether [p] is a 16-aligned payload pointer
    below the cursor whose header flags word is 1. *)
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

(** [validate t] checks every header (a class-size capacity, flags 0 or
    1), that the extents end at the cursor, and that the free extents
    are exactly those whose flags are 0: between transactions the
    volatile state is the one {!open_existing} would rebuild. Returns an
    error description instead of raising. *)
val validate : t -> (unit, string) result

(** [iter_objects t f] calls [f ptr ~capacity ~allocated] for every object
    slot in address order, up to the first header that ends the walk. *)
val iter_objects : t -> (ptr -> capacity:int -> allocated:bool -> unit) -> unit
