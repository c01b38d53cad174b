(** Multi-client virtual-time driver over a sharded façade, with an
    optional real-multicore mode.

    Clients are pinned round-robin to home shards (client [c] drives
    shard [c mod shards]) and each carries a fixed quota of
    [total_ops / clients] operations (earlier clients absorb the
    remainder). Because clients never migrate and quotas are fixed, the
    global furthest-behind order decomposes exactly into independent
    per-shard {e lanes}: the global pick restricted to one shard's
    clients is that shard's local pick. The driver therefore executes
    each lane's stream locally — and, with [domains > 1], concurrently
    on OCaml domains — while every per-shard timeline stays bit-identical
    to a standalone engine running that shard's clients alone, and the
    merged result is bit-identical across [domains] settings
    (DESIGN.md §13). *)

(** The home shard of [client] under [shards]. *)
val home : shards:int -> int -> int

(** [run ~shard ~clients ~total_ops ~step ()] — [step ~client ~shard_id ()]
    must execute exactly one operation against shard [shard_id] (whose
    active clock is already the client's) and return the operation's
    label. Returns the standard driver result; [elapsed_ns] is the
    largest per-client elapsed time, so throughput aggregates across
    shards.

    [domains] (default 1, clamped to the shard count) runs lanes on that
    many OCaml domains, shard [s] on domain [s mod domains]; each domain
    executes its lanes in ascending shard order. Simulated time, NVM
    counters, final heap images, latency histograms and Perfetto rings (via
    [shard_obs] + {!Kamino_obs.Obs.merged}) are bit-identical for any
    [domains] — wall-clock time is what changes.

    With more than one domain, a lane touches only its own shard: state
    [step] touches for shard [s] (its store, its clients' rng streams)
    must not be shared with other shards' operations, and nothing may
    cross shards. {!Shard.with_cross_tx} (hence a cross-shard
    {!Shard_kv.multi_put}) raises [Invalid_argument] for the duration of
    such a run; under [domains = 1] it commits as usual.

    If [step] raises, the domain running it stops. The other domains
    finish their lanes, every spawned domain is joined, and [run]
    re-raises the first exception in domain order, the calling domain
    (domain 0) first. *)
val run :
  ?domains:int ->
  shard:Shard.t ->
  clients:int ->
  total_ops:int ->
  step:(client:int -> shard_id:int -> unit -> string) ->
  unit ->
  Kamino_workload.Driver.result
