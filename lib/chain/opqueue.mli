(** Persistent operation queue.

    §5.1: "The replicas buffer such calls in an input queue in non-volatile
    memory before the receipt is acknowledged upstream. ... It then
    forwards the transaction downstream and moves the transaction from its
    input queue to a buffered queue of in-flight transactions." Both queues
    are instances of this module: a slotted persistent ring of encoded
    commands with globally ordered sequence numbers.

    Crash discipline: an entry (payload, its sequence tag and a checksum
    over both) publishes itself. [enqueue] flushes it and persists no
    tail word: the entry is durable at the caller's next fence, and until
    then a crash keeps it whole or not at all, since a torn entry fails
    its checksum. The head is a single 8-byte word, stored and persisted
    by [drop_peeked] / [drop_through]. [open_existing] recomputes the tail
    by validating entries forward from the head, so every crash leaves a
    well-formed window. *)

type t

(** [Region.Corrupt] ([structure "Opqueue"]) marks an image that cannot
    be read back; torn {e unpublished} entries are not corruption:
    [open_existing] trims them. *)

(** A read-only view of one validated entry. It lives in its queue's
    scratch buffer, so reading an entry copies nothing out of the queue
    beyond that buffer, and the view is overwritten by the next
    [peek]/[iter] on the same queue: copy out ({!Slot.to_string})
    whatever must outlive it. *)
module Slot : sig
  type t

  (** The entry's queue sequence number. *)
  val seq : t -> int

  (** Payload length in bytes. *)
  val length : t -> int

  (** The scratch buffer; the payload is its first [length] bytes. Callers
      must not write to it. *)
  val bytes : t -> bytes

  (** A fresh copy of the payload. *)
  val to_string : t -> string
end

(** [checksum ~seq payload] — the persisted check word of an entry. *)
val checksum : seq:int -> string -> int64

(** [required_size ~slot_bytes ~n_slots]. *)
val required_size : slot_bytes:int -> n_slots:int -> int

(** [format region ~slot_bytes ~n_slots] — [slot_bytes] bounds one encoded
    command. *)
val format : Kamino_nvm.Region.t -> slot_bytes:int -> n_slots:int -> t

(** Reopen after a crash: the queue is the entries that validate in
    sequence from the head word, at most [n_slots]; a torn or never
    durable entry ends it. Raises [Region.Corrupt] on a bad magic word or
    configuration, a negative head, or a head the entries disagree with:
    unless the head is 0, the slot before it must hold the entry with
    sequence [head - 1], or the queue must hold at least [n_slots - 1]
    entries (the enqueue of the last free slot reuses that slot). *)
val open_existing : Kamino_nvm.Region.t -> t

val length : t -> int

val is_empty : t -> bool

val is_full : t -> bool

(** Sequence number of the oldest entry / the next to enqueue.
    Sequence numbers are global and never reused. *)
val head_seq : t -> int

val tail_seq : t -> int

(** [enqueue t payload] appends an entry and flushes it, with no fence:
    the entry is durable at the caller's next fence (any region's, on the
    same domain; see {!Kamino_nvm.Region.flush}). Returns the entry's
    sequence number. Raises [Failure] when full or when the payload
    exceeds the slot size. *)
val enqueue : t -> string -> int

(** [peek t] — a view of the oldest entry. Allocation-free: the option is
    built once per queue. Raises [Region.Corrupt] on a bad entry. *)
val peek : t -> Slot.t option

(** [drop_peeked t] durably removes the oldest entry, which the last
    [peek] validated, without loading it again: one head-word store,
    flush and fence, and no load. The entry's view stays readable until
    the next [peek] or [iter]. Raises [Invalid_argument] unless the last
    [peek] returned an entry and the head has not moved since. *)
val drop_peeked : t -> unit

(** [drop_through t seq] durably removes every entry with sequence [<= seq]
    — the §5.1 cleanup acknowledgments garbage-collecting the in-flight
    queue. *)
val drop_through : t -> int -> unit

(** [iter t f] visits queued entries oldest-first. Raises [Region.Corrupt]
    on an entry that fails validation. *)
val iter : t -> (Slot.t -> unit) -> unit

(** [digest t] fingerprints the queue's region (volatile and persistent
    images) without charging any simulated cost — a determinism oracle
    for the queue's persisted format. *)
val digest : t -> string
