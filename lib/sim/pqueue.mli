(** Binary min-heap priority queue keyed by integer priority.

    The discrete-event engine uses it with time as the priority. Ties are
    broken by insertion order (FIFO), which keeps simulations deterministic
    when several events fire at the same instant. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

(** [push q prio v] inserts [v] with priority [prio]. *)
val push : 'a t -> int -> 'a -> unit

(** [pop q] removes and returns the minimum-priority element as
    [(priority, value)], or [None] if the queue is empty. *)
val pop : 'a t -> (int * 'a) option

(** [peek q] returns the minimum-priority element without removing it. *)
val peek : 'a t -> (int * 'a) option
