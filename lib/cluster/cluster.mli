(** The replicated shard-cluster: a chain of f+2 replicas per shard, keys
    spread across shard-chains by the multiplicative-hash router, and
    cross-shard transactions running the persistent-marker prepare/commit
    protocol over chain {e heads} (DESIGN.md §14, paper §5).

    The coordinator is a serialized state machine over the shared
    discrete-event simulation: each protocol step (prepare participant
    [k], persist marker, commit participant [k], clear marker) is its own
    event, so chaos faults — fail-stops, view changes, reboots, head
    promotions — can land {e between} any two steps. The prepares of all
    participants run at one instant, in ascending shard order; the marker
    follows the last prepare by an RPC delay, all commits follow the
    marker by one more at one instant, and the clear follows the commits
    by one more. The protocol survives head churn by re-preparing an undecided
    participant through its chain's current head (same sequence number)
    before the marker persists, and by re-driving committed-but-
    unacknowledged operations through the new head after every view
    change. Reboot recovery consults the marker: a Running intent record
    at node [n] of shard [s] rolls forward iff a valid marker lists
    [(s, n, tx_id)]. A corrupt marker image makes that reboot's recovery
    hook raise {!Kamino_nvm.Region.Corrupt}, as does any other image it
    cannot decode, out of {!run}; it is never read as "no marker", which
    could roll a decided transaction back on some participants. *)

module Op = Kamino_chain.Op
module Async = Kamino_chain.Async_chain

(** The 2PC protocol steps, reported as the coordinator crosses each
    one — the chaos harness arms targeted network faults on these (e.g.
    fail-stop the prepared head between prepare and marker persist).
    Power failures are injected at fences instead
    ({!Kamino_nvm.Region.at_fence}). *)
type cross_step =
  | Prepared of int  (** participant shard prepared at its current head *)
  | Marker_written  (** the commit point *)
  | Committed of int
  | Marker_cleared

type t

(** [create ~shards ~f ...] builds [shards] chains of f+2 Kamino replicas
    each, all driven by one shared simulation, plus the persistent
    cross-chain commit marker. [retry_ns] is the coordinator's back-off
    when a participant's head is mid-promotion and cannot prepare.
    [mode] (default [Kamino_chain { alpha = None }]) is every chain's
    replication mode; [Traditional] chains have f+1 replicas and cannot
    prepare, so they take no cross-shard multi_put. [slot_bytes] (default sized for a four-key
    multi_put slice) is each replica's queue slot size. [obs] (default
    {!Kamino_obs.Obs.null}) is handed to every chain; the chains number
    their tracks alike, so a trace of several shards overlays them. *)
val create :
  ?engine_config:Kamino_core.Engine.config ->
  ?obs:Kamino_obs.Obs.t ->
  ?hop_ns:int ->
  ?rpc_ns:int ->
  ?promote_ns:int ->
  ?retry_ns:int ->
  ?queue_slots:int ->
  ?slot_bytes:int ->
  ?mode:Async.mode ->
  shards:int ->
  f:int ->
  value_size:int ->
  node_size:int ->
  seed:int ->
  unit ->
  t

(** The shared simulation — schedule faults on it, then {!run}. *)
val sim : t -> Kamino_sim.Engine.t

val shards : t -> int

(** The shard-chain owning slot [s]. *)
val chain : t -> int -> Async.t

(** Deterministic key -> shard-chain routing ({!Kamino_shard.Shard.route_key}). *)
val route : t -> int -> int

(** Cluster metrics: [cluster.commit_ns] / [cluster.cross_commit_ns]
    histograms (p50/p95/p99 via {!Kamino_obs.Metrics.percentile}) and the
    [cluster.committed] / [cluster.crossed] / [cluster.redrives] /
    [cluster.re_prepares] / [cluster.prepare_retries] counters. *)
val registry : t -> Kamino_obs.Metrics.t

(** The commit marker's region ({!Kamino_nvm.Commit_marker.region}). *)
val marker_region : t -> Kamino_nvm.Region.t

(** [run t] drains the shared event queue; returns the number of events. *)
val run : t -> int

(** {1 Client interface} *)

(** [submit t ~at op ~on_complete] — a single-key write, routed to its
    owning shard-chain. [on_submit] reports the owning shard and the
    chain sequence number the moment the head assigns it. Raises on
    [Op.Batch] — use {!multi_put}. *)
val submit :
  t ->
  at:int ->
  ?on_submit:(shard:int -> seq:int -> unit) ->
  Op.t ->
  on_complete:(int -> unit) ->
  unit

(** [multi_put t ~at bindings ~on_complete] writes all [bindings]
    atomically across every shard-chain they route to. A single-shard
    batch commits as one ordinary chain transaction; otherwise the
    persistent-marker 2PC runs over the participant heads, and
    [on_complete] fires when {e every} participant chain's tail has
    acknowledged. [on_seq] reports each participant's chain sequence
    number at first prepare (stable across re-prepares). *)
val multi_put :
  t ->
  at:int ->
  ?on_step:(cross_step -> unit) ->
  ?on_seq:(shard:int -> seq:int -> unit) ->
  (int * string) list ->
  on_complete:(int -> unit) ->
  unit

(** The per-shard decomposition {!multi_put} uses: one [Op] per
    participant chain, ascending shard id, binding order preserved —
    the chaos oracles replay exactly this. *)
val group_bindings : t -> (int * string) list -> (int * Op.t) list

(** [read t ~at key ~on_result] — served by the owning chain's tail. *)
val read : t -> at:int -> int -> on_result:(string option -> int -> unit) -> unit

(** {1 Observation and verification} *)

(** Cross-chain transactions completed (all participants acknowledged). *)
val crossed : t -> int

(** Committed-but-unacknowledged re-drives triggered by view changes. *)
val redrives : t -> int

(** After {!run} drains: no active/queued/unacknowledged cross-chain
    transaction, and the marker is retired. *)
val quiescent : t -> (unit, string) result

(** {!quiescent}, every chain's replicas byte-consistent, and every head's
    backup image verified. *)
val verify : t -> (unit, string) result

(** Cost-free determinism fingerprint over every replica engine, every
    chain view, and the marker region — byte-identical across identical
    (seed, workload, schedule) runs. *)
val fingerprint : t -> string
