(** Chain replication of the key-value store (§5) over the discrete-event
    engine.

    Two modes over the same machinery:

    - {b Traditional}: [f+1] replicas, each running the undo-logging
      engine — every replica copies data in the critical path of every
      write.
    - {b Kamino-Tx-Chain}: [f+2] replicas. The head runs a Kamino engine
      (full or dynamic backup) and is collocated with the client; every
      other replica runs an [Intent_only] engine (in-place updates, no local
      copies at all). Aborts are decided at the head and never enter the
      chain.

    This module implements §5.1–§5.3's machinery explicitly and
    asynchronously:

    - operations are serializable commands ({!Op}) with a global sequence
      number assigned at the head;
    - every replica buffers received commands in a persistent {e input
      queue} before processing, executes them {e exactly once} (the
      last-executed sequence number is updated in the same transaction as
      the command itself), forwards them downstream as soon as that
      transaction commits, and only then moves them to a persistent
      {e in-flight queue} (the head, which has no input queue, records
      in flight before it forwards);
    - the tail acknowledges completion to the head (which releases locks
      and completes the client) and sends {e cleanup acknowledgments}
      upstream that garbage-collect the in-flight queues, both before it
      drops the command from its input queue;
    - the chain's composition is a sequence of {!Membership} views; every
      message is stamped with the sender's view id and receivers drop
      stale-view messages (§5.3). Fail-stop removals install a new view,
      repair the chain by re-driving every survivor's in-flight window, and
      — when the head fails under Kamino-Tx — promote the next replica by
      building it a local backup (§5.2), as a separate crashable event;
    - messages are events on a {!Kamino_sim.Engine}; replicas can crash and
      quick-reboot at arbitrary virtual times, mid-propagation included,
      recovering from their persistent queues and (for Kamino replicas)
      their chain neighbours, then re-forwarding anything not yet cleaned.

    The simulated network charges [hop_ns] per message and each replica
    serves requests serially on its own virtual clock, paying [rpc_ns] per
    request. A client's own hop to the chain is the caller's to charge:
    completions are stamped when the tail's acknowledgment reaches the head,
    and read results when the tail's reply is one hop out.

    The head holds a write's locks open-ended until the tail acknowledges
    ({!Kamino_core.Locks.hold_writes}). A later write to the same key that
    reaches the head before that acknowledgment does {e not} wait for it
    today: the acquisition is counted in the head's lock-wait events, adds
    no wait time, and proceeds at once. Chain order still serializes the
    two writes at every replica. Every op bumps the head's exec-seq word,
    so any write that arrives before an earlier write's ack meets at least
    that one held lock.

    Run a workload by submitting operations and calling {!run} to drain the
    event queue. The [*_now] variants apply a failure immediately — they
    exist for the chaos explorer, which injects faults at event boundaries
    of the simulation rather than at pre-planned virtual times. *)

type mode =
  | Traditional
  | Kamino_chain of { alpha : float option }
      (** [None]: full backup at the head; [Some a]: an LRU dynamic backup
          holding a fraction [a] of the heap. *)

(** Deliberately broken recovery, for validating the chaos oracles: a
    harness that cannot catch [Drop_inflight_on_reboot] (a reboot that
    forgets the un-cleaned in-flight window, leaving a later chain repair
    nothing to re-forward) is not testing anything. *)
type recovery_fault = No_fault | Drop_inflight_on_reboot

(** A queue slot that decodes to garbage is never executed or re-sent:
    it raises [Region.Corrupt] with [structure] naming the replica, the
    queue and the queue seq (["Async_chain node 1 input entry 7"]). *)
type t

(** [obs] (default {!Kamino_obs.Obs.null}) traces the whole chain into one
    tracer: per-hop propagation spans (forward sends, tail acks, cleanup
    cascade), view-change and head-promotion instants on track 0, and each
    node's engine events on its own track group — node [i] owns tracks
    [10 (i+1) .. 10 (i+1) + 3] (tx / applier / nvm / link). The null
    default costs one branch per site and cannot move simulated time. *)
val create :
  ?sim:Kamino_sim.Engine.t ->
  ?engine_config:Kamino_core.Engine.config ->
  ?obs:Kamino_obs.Obs.t ->
  ?hop_ns:int ->
  ?rpc_ns:int ->
  ?promote_ns:int ->
  ?queue_slots:int ->
  ?slot_bytes:int ->
  mode:mode ->
  f:int ->
  value_size:int ->
  node_size:int ->
  seed:int ->
  unit ->
  t

val length : t -> int

(** NVM bytes across the members of the current view: each replica's
    {!Kamino_core.Engine.storage_bytes} plus its two persistent queue
    regions. *)
val storage_bytes : t -> int

(** The simulation driving the chain — schedule crashes on it, then {!run}. *)
val sim : t -> Kamino_sim.Engine.t

(** [submit t ~at op ~on_complete] hands a write to the head at virtual
    time [at]; [on_complete] fires with the client-visible completion time
    when the tail's acknowledgment reaches the head. [on_submit] reports
    the op's global sequence number the moment the head assigns it. *)
val submit :
  t -> at:int -> ?on_submit:(int -> unit) -> Op.t -> on_complete:(int -> unit) -> unit

(** [read t ~at key ~on_result] — served by the current tail. *)
val read : t -> at:int -> int -> on_result:(string option -> int -> unit) -> unit

(** [quick_reboot t ~at i] schedules a crash + §5.3 recovery of replica [i]
    at virtual time [at]: the replica reopens its persistent queues,
    resolves incomplete transactions (with a local backup: locally;
    otherwise from a chain neighbour), re-executes anything received but
    unexecuted, and re-forwards anything not yet cleaned. One hop after
    the rejoin, its predecessor sends again the in-flight entries it had
    forwarded before the reboot and the replica had not executed, so a
    write lost in transit is not lost for good. A replica that was
    fail-stopped while dark learns [`Removed] from the rejoin handshake
    and stays out. *)
val quick_reboot : ?downtime_ns:int -> t -> at:int -> int -> unit

(** [reboot_now t i] — the same, applied immediately (event-boundary
    injection). *)
val reboot_now : ?downtime_ns:int -> t -> int -> unit

(** [fail_stop t ~at i] schedules a permanent fail-stop removal of replica
    [i]: a new membership view without it is installed, every survivor
    re-drives its in-flight window to its new neighbours, and if [i] was
    the head of a Kamino chain the new head's backup build is scheduled
    [promote_ns] later. Raises [Invalid_argument] if [i] is the last
    member. *)
val fail_stop : t -> at:int -> int -> unit

val fail_stop_now : t -> int -> unit

(** [inject_stale_probe t ~at i] delivers a forward message stamped with an
    out-of-date view id to replica [i]: view validation must drop it (the
    payload would visibly corrupt the replica if executed). *)
val inject_stale_probe : t -> at:int -> int -> unit

val inject_stale_probe_now : t -> int -> unit

(** [set_hop_jitter t (Some (rng, amp))] adds [Rng.int rng amp] nanoseconds
    of noise to every hop delay. Forward links stay FIFO (deliveries are
    clamped after the link's previous delivery), as over TCP. *)
val set_hop_jitter : t -> (Kamino_sim.Rng.t * int) option -> unit

val set_recovery_fault : t -> recovery_fault -> unit

(** [run t] drains the event queue; returns the number of events. *)
val run : t -> int

(** {1 Cluster composition}

    The cluster layer ({!Kamino_cluster.Cluster}) runs cross-chain
    transactions as persistent-marker 2PC over chain {e heads}. The chain
    contributes the per-participant half: prepare a transaction at the
    current head (wedging the chain — later client submissions park so no
    higher sequence number can execute ahead of the undecided one), report
    whether the prepared transaction is still alive at the current head,
    commit (or idempotently re-drive) it, and surface view changes and
    reboot-recovery decisions to the coordinator. *)

(** [cluster_prepare t op] executes [op] at the current head inside a
    prepared-but-undecided transaction ({!Kamino_core.Engine.prepare}) and
    wedges the chain. Returns [(seq, node, tx_id)] — the op's chain
    sequence number, the head that prepared it, and the engine-local
    transaction id (what the cluster marker records). [?seq] re-prepares
    under the {e same} sequence number at a newly promoted head after the
    original died undecided. Call only from inside a simulation event, and
    only when {!head_can_prepare}. *)
val cluster_prepare : ?seq:int -> t -> Op.t -> int * int * int

(** Whether the cluster transaction prepared as [seq] is still parked,
    undecided, at the current head. False after a head reboot (recovery
    resolved it from the marker) or a head promotion (the prepared state
    died with the old head) — the coordinator must then re-prepare (before
    the marker) or re-drive (after). *)
val cluster_prepared_live : t -> seq:int -> bool

(** [cluster_commit t ~seq op] makes the cluster decision visible on this
    chain: commits the prepared transaction if it is still alive, otherwise
    idempotently re-executes [op] at the current head; then unwedges the
    chain, flushes parked submissions, and propagates [seq] down the chain.
    [on_ack] fires with the completion time when the tail's acknowledgment
    reaches the head. *)
val cluster_commit : ?on_ack:(int -> unit) -> t -> seq:int -> Op.t -> unit

(** [cluster_redrive t ~seq op] re-propagates a committed-but-unacked
    cluster op through the {e current} head after a view change — execution
    and forwarding are exactly-once guarded, so re-driving is always safe. *)
val cluster_redrive : t -> seq:int -> Op.t -> unit

(** Whether the current head's engine supports two-phase commit right now —
    false for a freshly promoted head until its backup build completes
    (it is still [Intent_only]), and always false for [Traditional]
    chains. *)
val head_can_prepare : t -> bool

(** The chain is wedged under a prepared-but-undecided cluster
    transaction. *)
val cluster_held : t -> bool

(** Client submissions currently parked behind the wedge. *)
val deferred_count : t -> int

(** [set_view_change_hook t (Some h)] — [h] runs at the end of every
    fail-stop view change, after the survivors' chain repair. *)
val set_view_change_hook : t -> (unit -> unit) option -> unit

(** [set_recovery_hook t (Some h)] — [h ~node ~tx_id] is the cluster
    marker's all-or-nothing decision for a Running intent record found when
    replica [node] reboots: true rolls it forward (the cluster committed),
    false rolls it back. *)
val set_recovery_hook : t -> (node:int -> tx_id:int -> bool) option -> unit

(** {1 Observation} *)

(** Members of the current view, head first. *)
val members : t -> int list

val view_id : t -> int

val head_id : t -> int

val tail_id : t -> int

(** Messages dropped by stale-view validation so far. *)
val stale_drops : t -> int

(** The replica whose head promotion (backup build) is still in flight. *)
val promotion_pending : t -> int option

(** Committed-state contents of one replica (tests). *)
val kv_at : t -> int -> Kamino_kv.Kv.t

val engine_at : t -> int -> Kamino_core.Engine.t

(** White-box access to a replica's persistent input and in-flight queues
    (corruption tests). *)
val input_queue : t -> int -> Opqueue.t

val inflight_queue : t -> int -> Opqueue.t

(** Every member of the current view holds the same committed contents. *)
val replicas_consistent : t -> (unit, string) result

(** Highest op sequence executed by a replica (exactly-once check). *)
val executed_seq : t -> int -> int

(** Every op sequence whose transaction committed at replica [i], sorted —
    omniscient-observer ground truth for the chaos oracles (survives
    reboots; holes appear when a head fails before an op propagates). *)
val applied_seqs : t -> int -> int list
