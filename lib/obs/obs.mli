(** Typed, allocation-free event ring for simulated-time tracing.

    A tracer is a fixed-capacity ring of preallocated slots with mutable
    integer fields.  Recording an event mutates the next slot in place:
    no allocation, no boxing, no closures.  When the ring is full the
    oldest event is overwritten and [dropped] is incremented, so a
    bounded ring never perturbs the run it observes.

    The disabled tracer [null] makes every instrumentation site a single
    [if Obs.enabled obs then ...] branch over an immutable boolean
    field.  Instrumented code must not read clocks, compute arguments,
    or touch the ring unless that branch is taken — this is what makes
    tracing provably free when disabled (see DESIGN.md par10).

    Timestamps and durations are simulated nanoseconds supplied by the
    caller; the tracer itself never touches a clock, which keeps traces
    byte-identical for a given seed. *)

type t

(** {1 Event kinds}

    Kinds are small ints so slots stay unboxed.  The [a]/[b]/[c]
    payload fields are kind-specific; see [arg_names]. *)

val k_flush : int
(** Span on an nvm track: one write-back run. [a] = cache lines
    flushed, [b] = first byte offset of the run. *)

val k_fence : int
(** Span on an nvm track: a persistence fence (drain). *)

val k_intent : int
(** Instant on a tx track: intent-log append. [a] = byte offset,
    [b] = length. *)

val k_lock_wait : int
(** Span on a tx track: time a transaction stalled acquiring a lock.
    [a] = lock key, [b] = cause (0 = contention with a live reader or
    writer, 1 = dependent wait for backup catch-up), [c] = tx id. *)

val k_commit : int
(** Span on a tx track: begin-to-commit. [a] = tx id, [b] = write-set
    ranges, [c] = intent slot (or -1). *)

val k_abort : int
(** Span on a tx track: begin-to-abort. [a] = tx id. *)

val k_applier_task : int
(** Span on an applier track: one backup-propagation task occupying the
    applier's private timeline. [a] = tx id, [b] = ranges, [c] = bytes. *)

val k_applier_batch : int
(** Instant on an applier track: a batched apply drained the queue.
    [a] = tasks applied, [b] = ranges written. *)

val k_queue_depth : int
(** Counter on an applier track: backup queue depth after an enqueue.
    [a] = depth. *)

val k_hop : int
(** Span on a chain-link track: one payload or ack hop in flight.
    [a] = sequence number, [b] = source node, [c] = destination node. *)

val k_view_change : int
(** Instant on the system track: membership excised a node.
    [a] = new view id, [b] = removed node. *)

val k_promote : int
(** Instant on the system track: mid-node head promotion completed.
    [a] = promoted node, [b] = view id. *)

val k_fault : int
(** Instant on the system track: chaos injected a fault.
    [a] = fault code (0 = reboot, 1 = fail-stop, 2 = stale-view probe,
    3 = hop jitter), [b] = node, [c] = event index. *)

val k_fs_op : int
(** Span on the filesystem track: one fs operation (create, write,
    rename, unlink, fsck, ...). [a] = opcode ({!Kamino_fs.Fs.opcode}
    order), [b] = primary inode, [c] = op-specific auxiliary (bytes
    written, entries scanned, target inode, ...). *)

val kind_name : int -> string
(** Stable display name, e.g. ["flush"], ["lock_wait"]. *)

val kind_cat : int -> string
(** Perfetto category: ["nvm"], ["tx"], ["applier"], ["chain"],
    ["chaos"] or ["fs"]. *)

val arg_names : int -> string * string * string
(** Display labels for [a], [b], [c]; [""] means the field is unused
    and sinks omit it. *)

(** {1 Tracer lifecycle} *)

val null : t
(** The disabled tracer: [enabled null = false], every [emit] is a
    no-op.  Default everywhere. *)

val create : ?capacity:int -> unit -> t
(** Enabled tracer with a ring of [capacity] slots (default 65536,
    min 16).  Allocation happens here, once. *)

val enabled : t -> bool
(** Single immutable-field read; the only thing instrumentation sites
    may evaluate unconditionally. *)

val emit :
  t -> kind:int -> track:int -> ts:int -> dur:int -> a:int -> b:int -> c:int
  -> unit
(** Record one event.  [ts] is simulated ns; [dur >= 0] is a span,
    [dur = -1] an instant (or counter sample for [k_queue_depth]).
    Overwrites the oldest event when full.  No-op on [null]. *)

val name_track : t -> int -> string -> unit
(** Associate a display name with a track id (sinks emit it as
    Perfetto thread metadata).  Last writer wins.  No-op on [null]. *)

(** {1 Reading back} *)

val length : t -> int
(** Events currently held (<= capacity). *)

val capacity : t -> int

val dropped : t -> int
(** Events overwritten since creation (or the last [reset]). *)

val total : t -> int
(** Events ever emitted: [length + dropped]. *)

val reset : t -> unit
(** Empty the ring and zero [dropped]; keeps capacity and track names. *)

val iter :
  t
  -> (kind:int -> track:int -> ts:int -> dur:int -> a:int -> b:int -> c:int
      -> unit)
  -> unit
(** Visit surviving events oldest-first. *)

val tracks : t -> (int * string) list
(** Named tracks, sorted by track id. *)

val merged : t array -> t
(** [merged rings] combines per-domain event rings into one tracer for
    sink time: events are stably ordered by track id, then simulated ns,
    then ring-array position — a key that never depends on domain
    scheduling, only on the caller-fixed ring order (shard id under the
    parallel driver, where each track is written by exactly one ring).
    The result's capacity, [dropped] count and track names are the sums
    and union of the inputs, so sink trailers stay faithful. Disabled
    rings are skipped; [merged [||]] (or all-disabled) is {!null}. *)
