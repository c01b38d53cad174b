(** Sharded multi-engine façade.

    Partitions the persistent heap across [shards] fully independent
    {!Kamino_core.Engine} instances — per-shard region, intent log, backup,
    applier and obs tracks — behind a deterministic key router. Single-shard
    transactions run exactly as on a standalone engine (shard [i] of a
    façade seeded [s] is bit-identical to [Engine.create ~seed:(s + i)]);
    cross-shard transactions use ordered shard acquisition and two-phase
    commit against a persistent commit marker, so a crash anywhere in the
    protocol leaves the transaction all-or-nothing across shards (DESIGN.md
    par11). *)

module Engine = Kamino_core.Engine

type t

(** [create ~kind ~seed ~shards ()] builds [shards] engines. Engine [i]
    is created with seed [seed + i] and, when its tracer is enabled, base
    Perfetto track [obs_track_base + 4 * i] (named [shard<i>.tx] /
    [.applier] / [.nvm]). The cross-shard commit marker lives in its own
    small region sharing [config]'s cost model and crash mode.

    [shard_obs] (length [shards]) gives shard [i] its {e own} event ring
    [shard_obs.(i)] instead of the shared [obs] — required under
    {!Shard_driver.run} with [domains > 1], where each ring is mutated
    only by its shard's executor domain and
    {!Kamino_obs.Obs.merged} recovers the deterministic global timeline
    afterwards. *)
val create :
  ?config:Engine.config ->
  ?obs:Kamino_obs.Obs.t ->
  ?shard_obs:Kamino_obs.Obs.t array ->
  ?obs_track_base:int ->
  kind:Engine.kind ->
  seed:int ->
  shards:int ->
  unit ->
  t

val shards : t -> int

(** [engine t i] is shard [i]'s engine — the full standalone API applies. *)
val engine : t -> int -> Engine.t

(** The cross-shard commit marker (white-box tests). *)
val marker : t -> Kamino_nvm.Commit_marker.t

(** {1 Routing} *)

(** [route_key ~shards key] is the deterministic key router: a
    multiplicative hash so dense and strided key spaces both spread. *)
val route_key : shards:int -> int -> int

val route : t -> int -> int

(** {1 Transactions} *)

(** [set_clock t i c] switches shard [i]'s active client clock. *)
val set_clock : t -> int -> Kamino_sim.Clock.t -> unit

(** [set_parallel t on] marks whether lanes of [t] currently run on
    several domains; {!Shard_driver.run} sets it for the duration of a
    multi-domain run. *)
val set_parallel : t -> bool -> unit

(** [with_tx t i f] runs a single-shard transaction on shard [i] —
    plain [Engine.with_tx], no façade overhead. *)
val with_tx : t -> int -> (Engine.tx -> 'a) -> 'a

(** [with_cross_tx t ids f] runs one atomic transaction spanning shards
    [ids]. Participants begin in ascending shard order on the first
    participant's clock; [f] receives a lookup from shard id to its open
    transaction. On normal return: prepare each shard, persist the marker
    (participant [(shard, tx_id)] pairs, then the valid flag, each behind
    its own fence), commit each prepared transaction, clear the marker.
    On exception from [f]: abort every participant and re-raise. Only the
    Kamino kinds support this (two-phase commit); others raise
    [Engine.Error (Unsupported _)]. Raises [Invalid_argument], touching
    no shard, while {!set_parallel} is on: each engine then belongs to
    one executor domain (DESIGN.md §13). *)
val with_cross_tx : t -> int list -> ((int -> Engine.tx) -> 'a) -> 'a

(** {1 Crashes and recovery} *)

(** Power failure on every shard and the marker region. *)
val crash : t -> unit

(** Recovers every shard. A valid commit marker promotes its listed
    participants — their Running intent records roll {e forward} — and
    is then cleared; without one every incomplete transaction rolls back
    as on a standalone engine. Raises {!Kamino_nvm.Region.Corrupt},
    before touching any shard, if the marker's persisted image is
    corrupt (reading it as "no marker" could roll a decided transaction
    back on some participants), and so does a shard's own recovery. *)
val recover : t -> unit

val drain_backups : t -> unit

(** Per-shard commit watermarks, indexed by shard id: shard [i]'s applier
    publishes its own [(task_id, wm_ns)] independently ([None] when the
    shard's kind cannot serve snapshots). There is deliberately no global
    watermark — sharded snapshot reads are {e per-shard} consistent: each
    key is served at its owning shard's watermark, and a multi-key read
    spanning shards may observe different shards at different prefixes. *)
val watermarks : t -> (int * int) option array

val verify_backups : t -> (unit, string) result

(** {1 Aggregates} *)

val committed : t -> int
