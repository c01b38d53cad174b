(** Discrete-event simulation engine.

    Events are thunks scheduled at absolute virtual times. [run] executes
    them in time order; an executing event may schedule further events. The
    chain-replication experiments and the failure-injection tests are built
    on this engine. *)

type t

val create : unit -> t

(** [now t] is the time of the event currently being executed, or the time
    of the last executed event when idle. *)
val now : t -> int

(** [schedule t ~at f] schedules thunk [f] to run at absolute time [at].
    Scheduling in the past is clamped to [now t] (the event runs "now",
    after already-pending events at the same time). *)
val schedule : t -> at:int -> (unit -> unit) -> unit

(** [schedule_after t ~delay f] schedules [f] at [now t + delay]. *)
val schedule_after : t -> delay:int -> (unit -> unit) -> unit

(** [run t] executes events until the queue is empty. Returns the number of
    events executed. *)
val run : t -> int

(** [run_until t ~deadline] executes events with time [<= deadline]; later
    events stay queued. Returns the number of events executed. *)
val run_until : t -> deadline:int -> int

(** [pending t] is the number of queued events. *)
val pending : t -> int

(** [events_executed t] is the total number of events executed since
    [create] — a deterministic logical clock for the simulation, used by
    the chaos explorer to address fault-injection points ("after the Nth
    event") independently of virtual time. *)
val events_executed : t -> int

(** [set_boundary_hook t (Some f)] installs a callback invoked after every
    executed event, once the event's own side effects (including anything
    it scheduled) are in place. The hook runs {e between} events, so it may
    inspect and mutate simulation state — crash a node, bump a membership
    view, schedule new events — without racing the event it follows. One
    hook at a time; [None] uninstalls. *)
val set_boundary_hook : t -> (unit -> unit) option -> unit
