(** Membership / view manager — the paper's Zookeeper stand-in (§5.3).

    Tracks the chain's composition as a sequence of numbered {e views}.
    Every membership change (fail-stop removal, a new tail joining)
    produces a new view with a strictly larger id. Replicas stamp their
    messages with the view id they believe is current; [validate] is the
    check every receiver performs ("all messages carry a viewID and
    replicas reject messages with an older viewID").

    A quickly rebooting replica asks to [rejoin] with its believed view id:
    if the view moved on while it was dark, it learns the current view (and
    whether it is even still a member); if it is still current, it receives
    its predecessor and successor so it can run the incomplete-transaction
    repair of Figure 9 before serving again.

    A simple silence-based failure detector ([record_heartbeat] /
    [suspects]) models the detection timeout that separates a quick reboot
    from a fail-stop. *)

type view = { id : int; members : int list }  (** head first *)

type t

(** [create ~members ~failure_timeout_ns] starts at view 1. Node ids are
    non-negative and index the per-view neighbour tables, so they should
    be small; [Invalid_argument] on a negative id. *)
val create : members:int list -> failure_timeout_ns:int -> t

val current : t -> view

(** [validate t ~view_id] — receivers reject stale-view messages. *)
val validate : t -> view_id:int -> [ `Current | `Stale of view ]

(** [remove t node] installs a new view without [node].
    Raises [Invalid_argument] if it is not a member. *)
val remove : t -> int -> view

(** [add_tail t node] installs a new view with [node] appended as tail. *)
val add_tail : t -> int -> view

(** [rejoin t ~node ~believed_view] — the §5.3 rejoin handshake. A member
    gets its current neighbours ([None] = chain end); a node that was
    declared failed while dark is told so. *)
val rejoin :
  t ->
  node:int ->
  believed_view:int ->
  [ `Member of view * int option * int option  (** view, predecessor, successor *)
  | `Removed of view ]

(** Position helpers on the current view. [predecessor] and [successor]
    read tables built when the view was installed: they allocate
    nothing. *)

val is_head : t -> int -> bool

val predecessor : t -> int -> int option

val successor : t -> int -> int option

(** {1 Failure detection} *)

(** [record_heartbeat t ~node ~now] — replicas heartbeat the manager. *)
val record_heartbeat : t -> node:int -> now:int -> unit

(** [suspects t ~now] lists members whose last heartbeat is older than the
    failure timeout — candidates for fail-stop removal. *)
val suspects : t -> now:int -> int list
