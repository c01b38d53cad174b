(** Bounded lock-free MPSC/MPMC queue — the cross-domain mailbox of the
    shard router.

    A fixed ring of cells guarded by per-cell sequence atomics (Vyukov's
    bounded queue): senders and receivers each take one CAS per
    operation, and the sequence atomics provide the happens-before edges
    that publish the payload across domains. Capacity is rounded up to a
    power of two, minimum 2 — a one-cell ring cannot distinguish full
    from empty. *)

type 'a t

val create : capacity:int -> 'a t

val capacity : 'a t -> int

(** [try_send t v] enqueues [v], or returns [false] if the ring is full. *)
val try_send : 'a t -> 'a -> bool

(** [try_recv t] dequeues the oldest message, or [None] if empty. *)
val try_recv : 'a t -> 'a option

(** [send t v] is the blocking {!try_send}: it spins with
    [Domain.cpu_relax] until the ring has space. *)
val send : 'a t -> 'a -> unit
