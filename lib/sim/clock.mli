(** Virtual time, in integer nanoseconds.

    Every component of the simulated NVM stack charges its costs to a clock.
    Multi-client experiments give each client its own clock and interleave
    them in virtual-time order; the background backup applier likewise runs
    on a private clock, which is how Kamino-Tx's "off the critical path"
    copying is modelled. *)

type t

(** [create ()] returns a clock at time 0. *)
val create : unit -> t

(** [create_at ns] returns a clock at absolute time [ns]. *)
val create_at : int -> t

(** [now t] is the current time in nanoseconds. *)
val now : t -> int

(** [advance t ns] moves the clock forward by [ns] nanoseconds.
    Raises [Invalid_argument] if [ns < 0]. *)
val advance : t -> int -> unit

(** [advance_to t ns] moves the clock to absolute time [ns] if that is in
    the future; does nothing otherwise. Returns the wait incurred (0 if
    none). Used for lock waits: "block until the backup catches up". *)
val advance_to : t -> int -> int
