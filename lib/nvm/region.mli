(** Simulated byte-addressable non-volatile memory region.

    A region holds two images of its contents:

    - the {e volatile} image: what loads observe — stores land here first,
      modelling the CPU cache hierarchy;
    - the {e persistent} image: what survives a crash — data moves here only
      when the corresponding cache line is flushed (or is evicted by chance
      at crash time).

    Writes mark 64-byte cache lines dirty. [flush] writes dirty lines back
    to a pending state; [fence] makes every pending line durable (and
    charges the drain latency), as on x86. [crash] simulates power failure:
    each dirty or pending line may or may not have been evicted, and within
    an evicted line each aligned 8-byte word independently survives, which
    is exactly the guarantee x86 NVMM gives software (8-byte aligned stores
    are atomic; nothing else is). Recovery code must tolerate every
    outcome, and the property-based tests drive thousands of such crashes.

    All operations charge virtual time to the region's current clock; see
    {!set_clock} for how multi-client simulations multiplex clocks. *)

type t

val line_size : int

(** How unflushed data behaves at a crash. *)
type crash_mode =
  | Words_survive_randomly
      (** each dirty aligned 8-byte word independently persists or not — the
          adversarial, hardware-faithful default *)
  | Lines_survive_randomly  (** whole 64 B lines persist or not *)
  | Drop_unflushed  (** nothing unflushed survives — most deterministic *)

val create :
  ?cost:Cost_model.t ->
  ?crash_mode:crash_mode ->
  rng:Kamino_sim.Rng.t ->
  clock:Kamino_sim.Clock.t ->
  size:int ->
  unit ->
  t

val size : t -> int

val cost_model : t -> Cost_model.t

(** [set_clock t clock] redirects all subsequent cost charging to [clock].
    The multi-client scheduler and the background backup applier switch the
    active clock before running on behalf of a client. *)
val set_clock : t -> Kamino_sim.Clock.t -> unit

val clock : t -> Kamino_sim.Clock.t

(** {1 Observability}

    A region records flush write-back runs (spans) and fences on its
    tracer. The tracer defaults to {!Kamino_obs.Obs.null}; every
    instrumentation site is a single enabled-check branch, and events
    never touch the clock, so tracing cannot perturb simulated time
    (DESIGN.md par10). *)

(** [set_obs t ?track obs] attaches a tracer; [track] is the Perfetto
    track (thread) id events are tagged with (default 0). *)
val set_obs : t -> ?track:int -> Kamino_obs.Obs.t -> unit

val obs : t -> Kamino_obs.Obs.t

(** {1 Loads and stores}

    All offsets are bounds-checked; integer accessors use little-endian
    encoding. *)

val write_bytes : t -> int -> bytes -> unit
val write_string : t -> int -> string -> unit
val write_int64 : t -> int -> int64 -> unit
val write_int32 : t -> int -> int32 -> unit

(** 63-bit OCaml int stored as a little-endian int64. *)
val write_int : t -> int -> int -> unit
val write_byte : t -> int -> int -> unit

val read_bytes : t -> int -> int -> bytes
val read_string : t -> int -> int -> string
val read_int64 : t -> int -> int64
val read_int32 : t -> int -> int32
val read_int : t -> int -> int
val read_byte : t -> int -> int

(** [read_into t off dst pos len] copies [len] bytes at [off] into [dst]
    starting at [pos] — the allocation-free counterpart of {!read_bytes}
    (same load accounting, same bounds checks, caller-supplied buffer). *)
val read_into : t -> int -> bytes -> int -> int -> unit

(** [charge_load t off len] charges one load of [len] bytes at [off] —
    the counters and simulated cost of {!read_bytes} — and copies
    nothing. For a data path that loads a run of words at once and then
    reads them with {!peek_int}: one load's overhead for the run, no
    buffer allocated. Bounds-checked. *)
val charge_load : t -> int -> int -> unit

(** The one exception of every decoder of persistent state, raised before
    it writes anything: the word at [off] (in [structure]'s region unless
    its decoder says otherwise) cannot have been written by this build. *)
exception Corrupt of { structure : string; off : int; what : string }

(** [corrupt ~structure ~off fmt ...] raises {!Corrupt}, [what] from [fmt]. *)
val corrupt : structure:string -> off:int -> ('a, unit, string, 'b) format4 -> 'a

(** {2 Length-prefixed records}

    A record is a length word followed by that many bytes: a KV value, a
    directory entry's name. *)

(** [read_prefixed t off ~max] reads the record at [off]: the length word
    [len] at [off], then the [len] bytes after it. Both are charged as
    {e one} load of [8 + len] bytes, which loads the same bytes as
    {!read_int} then {!read_string} in one load's overhead. A [len]
    outside [\[0, max\]] charges the word's 8-byte load and raises
    {!Corrupt} (["record"], ["length <len> outside \[0, <max>\]"]), so a
    corrupt word can never read past the record's [max] bytes into a
    neighbouring object. Bounds-checked. *)
val read_prefixed : t -> int -> max:int -> string

(** {2 Unchecked accessor}

    Identical to {!read_int} — same counters and simulated cost — except
    the per-call range check is skipped. The caller must have validated
    that the whole enclosing range is in bounds (e.g. a log-slot header
    checked once at lookup); an unvalidated offset reads adjacent data
    silently. *)

val unsafe_read_int : t -> int -> int

(** [equal_ranges a aoff b boff len] compares [len] bytes of [a]'s and
    [b]'s volatile images without allocating. Each region is charged
    exactly one load of [len] bytes, so substituting this for a
    read-both-and-compare leaves every counter and simulated cost
    unchanged. *)
val equal_ranges : t -> int -> t -> int -> int -> bool

(** [hash_range t off len h] folds the [len] bytes at [off] of the
    volatile image into the running hash [h] and returns the new hash:
    seed it with any int, chain ranges by passing the result on. It is
    charged as one load of [len] bytes, like a {!read_into} of the range,
    and allocates nothing. The hash is 63 bits wide, every bit of the
    range counts, and [len] is folded in first, so moving bytes between
    chained ranges changes it. Not cryptographic: it rejects torn
    persists, not adversaries. Bounds-checked. *)
val hash_range : t -> int -> int -> int -> int

(** [fill t off len byte] stores [len] copies of [byte]. *)
val fill : t -> int -> int -> int -> unit

(** [blit t ~src ~dst ~len] copies within the region (volatile image),
    charging bulk-copy cost and dirtying the destination. *)
val blit : t -> src:int -> dst:int -> len:int -> unit

(** [blit_uncharged t ~src ~dst ~len] copies within the region like
    {!blit}, dirtying the destination, but charges and counts nothing. It
    re-sources part of a copy that was already charged in full — a CoW
    working copy whose bytes come partly from an earlier working copy —
    and is not a way to move data for free. *)
val blit_uncharged : t -> src:int -> dst:int -> len:int -> unit

(** [copy_between ~src ~src_off ~dst ~dst_off ~len] copies between regions
    (volatile images), charging bulk-copy cost to [dst]'s clock and dirtying
    the destination lines. This is the primitive behind Kamino-Tx's
    roll-forward (main -> backup) and roll-back (backup -> main). *)
val copy_between : src:t -> src_off:int -> dst:t -> dst_off:int -> len:int -> unit

(** {1 Persistence} *)

(** [flush t off len] writes back every dirty line intersecting the range,
    as [clwb]/[clflushopt] do: the lines become {e pending}, durable only
    at the next {!fence} on the calling domain, whatever region that fence
    names. Until then a crash treats a pending line like a dirty one. A
    store to a pending line does not change what that fence makes durable
    (the content the flush wrote back) and dirties the line again. *)
val flush : t -> int -> int -> unit

(** [fence t] charges the ordering/drain latency to [t] and makes durable
    every line pending in any region flushed on the calling domain: an x86
    fence orders every earlier flush of its core, whatever region it was
    in. *)
val fence : t -> unit

(** [hand_off ()] lets other domains use the regions the calling domain
    has flushed since its last fence. Their pending lines stay pending,
    and become durable at the next fence on the domain that flushes such
    a region next. Call it before another domain may flush a region this
    one flushed (a domain lists each region it flushes once, until its
    next fence, so two domains must never list the same region). Charges
    nothing. *)
val hand_off : unit -> unit

(** [at_fence n f] arms a one-shot crash point: [f] runs at entry to the
    [n]-th {!fence} from now ([0] = the next one), counted across every
    region in the process, before that fence takes effect; the countdown
    disarms itself first, so [f] may fence, re-arm, or raise. A test that
    crashes its engines in [f] and raises sweeps every durability point
    of an operation by re-running it for [n = 0, 1, ...]. Disarmed, it
    costs [fence] one integer compare: no allocation, no simulated ns, no
    counter. Arm it only from single-domain code. Raises
    [Invalid_argument] on a negative [n]. *)
val at_fence : int -> (unit -> unit) -> unit

(** [disarm_fence ()] cancels a pending {!at_fence}. *)
val disarm_fence : unit -> unit

(** [persist t off len] = flush then fence: the standard persist barrier. *)
val persist : t -> int -> int -> unit

(** [flush_all t] flushes every dirty line (no fence). *)
val flush_all : t -> unit

(** [persist_all t] flushes everything and fences — used at clean shutdown. *)
val persist_all : t -> unit

(** {1 Crash simulation} *)

(** [crash t] simulates power failure and reboot: data not yet made durable
    by a fence survives according to the crash mode, then the volatile image
    is reloaded from the persistent image. *)
val crash : t -> unit

(** [is_persisted t off len] is [true] iff no line in the range is dirty or
    pending — i.e. the range would survive a crash bit-for-bit. *)
val is_persisted : t -> int -> int -> bool

(** [dirty_lines t] counts currently dirty lines (pending ones excluded). *)
val dirty_lines : t -> int

(** {2 Typed charges}

    Every cost a higher layer charges is one unit of a {!Cost_model}
    term: the charge counts it in {!counters} and charges the term's
    constant to the region's current clock, through the same
    fractional-ns carry as loads and stores. So over a span in which
    one clock is charged by nothing else, its advance is the counters'
    dot product with the cost model, plus lock costs and waits, plus the
    carry at the start less the carry at the end ({!carry_ns}). *)

(** One allocator carve ([alloc_ns]): a heap object or a backup slot. *)
val charge_alloc : t -> unit

(** One allocator release ([free_ns]). *)
val charge_free : t -> unit

(** One hash-index operation ([index_ns]). *)
val charge_index : t -> unit

(** One data-log entry's management ([log_entry_ns]). *)
val charge_log_entry : t -> unit

(** [charge_clflush t lines] — [lines] serializing CLFLUSHes
    ([clflush_ns] each). *)
val charge_clflush : t -> int -> unit

(** One transaction begin ([tx_overhead_ns]). *)
val charge_tx_begin : t -> unit

(** The sub-nanosecond cost carried into the next charge, in [\[0, 1)]. *)
val carry_ns : t -> float

(** [digest t] is a hex digest of the volatile and persistent images.
    Cost-free by construction — no simulated time, no counter updates —
    so determinism oracles can fingerprint a heap without perturbing the
    execution they are checking. *)
val digest : t -> string

(** [peek_int t off] / [peek_int64 t off] read the volatile image without
    charging any simulated cost — the load counters and the clock are
    untouched, like {!digest}. Strictly for observability (metric gauges,
    allocator stats walks): data paths must use [read_*] so the cost model
    sees every access. Bounds-checked. *)
val peek_int : t -> int -> int

val peek_int64 : t -> int -> int64

(** {1 Counters} *)

type counters = {
  mutable stores : int;
  mutable bytes_stored : int;
  mutable loads : int;
  mutable bytes_loaded : int;
  mutable lines_flushed : int;
  mutable fences : int;
  mutable bytes_copied : int;
  mutable copies : int;  (** bulk copies ({!blit}, {!copy_between}) *)
  mutable allocs : int;
  mutable frees : int;
  mutable index_ops : int;
  mutable log_entries : int;
  mutable clflush_lines : int;
  mutable tx_begins : int;
  mutable crashes : int;
}

val counters : t -> counters

(** A fresh all-zero record. *)
val zero_counters : unit -> counters

(** [add_counters acc c] adds every field of [c] into [acc]. *)
val add_counters : counters -> counters -> unit

val reset_counters : t -> unit
