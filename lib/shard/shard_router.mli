(** Cross-domain router: makes cross-shard transactions work when shard
    lanes execute on separate OCaml domains ({!Shard_driver.run} with
    [domains > 1]).

    Each shard engine is single-owner — only its executor domain touches
    it — so ordinary operations take no locks. An operation spanning
    foreign shards {e leases} their host domains through per-domain
    mailboxes: the coordinator parks each foreign executor at a safe
    point (between operations, no transaction active), drives the parked
    domains' engines directly through the plain {!Shard} API, then
    releases them. All leasing operations serialize on a single
    coordinator lock, mirroring the fact that the persistent cross-shard
    commit marker is one record; the mailbox atomics carry the
    happens-before edges, so engine state needs no locking of its own
    (DESIGN.md §13).

    With [domains = 1] (or outside a parallel run) every shard is
    home-hosted: no messages are ever sent and the single-participant
    fast path is lock-free, so sequential callers can pass a router
    unconditionally. Leased operations are linearizable and crash-atomic
    exactly like their sequential counterparts, but they are {e not}
    part of the bit-determinism contract — the parallel-vs-sequential
    oracle covers home-pinned workloads only. *)

type t

val create : Shard.t -> t

val shard : t -> Shard.t

(** [attach t ~domains] fixes the shard-to-domain placement (shard [i]
    on domain [i mod domains], the driver's lane grouping). Called by
    {!Shard_driver.run}; callers only need it when using the router
    without the driver. *)
val attach : t -> domains:int -> unit

(** [service t ~domain] answers pending leases addressed to [domain]:
    ack, spin until released, repeat. Executors call it between
    operations; the no-lease fast path is one atomic load. While parked
    inside this call the domain's engines may be driven by the
    coordinator. *)
val service : t -> domain:int -> unit

(** [exclusive t ~from ids f] runs [f] with exclusive ownership of every
    shard in [ids]. [from] is the caller's home shard (it identifies the
    calling domain under the attached placement — it need not be in
    [ids]). Home-domain single-shard calls run [f] directly with no
    locking; anything else takes the coordinator lock and leases the
    foreign hosts for the duration of [f]. *)
val exclusive : t -> from:int -> int list -> (unit -> 'a) -> 'a

(** {!Shard.with_cross_tx} under {!exclusive} — the cross-shard 2PC,
    safe from any executor domain. *)
val with_cross_tx :
  t ->
  from:int ->
  int list ->
  ((int -> Kamino_core.Engine.tx) -> 'a) ->
  'a

(** Leased (locked) operations completed so far. *)
val crossed : t -> int

(** {2 Fast-path accounting}

    Plain-int counters — exact only when the router is driven from a
    single domain, which is what the regression tests do. The invariant
    they pin: with zero leases in flight, every {!service} call costs
    exactly one atomic load (of the park gate) and never enters the
    mailbox drain. *)

(** {!service} invocations. *)
val service_calls : t -> int

(** Atomic loads of the park gate performed by {!service}. *)
val service_loads : t -> int

(** Slow-path entries: {!service} calls that saw parks in flight and
    drained the mailbox. *)
val service_drains : t -> int
