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
    [domains] — wall-clock time is what changes. [step] must be
    domain-safe in the natural sharded sense: state it touches for shard
    [s] (stores, rng streams of [s]'s clients) must not be shared with
    other shards' operations.

    [router] enables cross-shard operations from inside [step] under
    [domains > 1] (pass it to {!Shard_kv.multi_put} or use
    {!Shard_router.with_cross_tx} with [~from:shard_id]): the driver
    attaches it to the run's placement and executors answer its lease
    requests between operations. Routed cross-shard operations are
    linearizable but excluded from the bit-determinism contract. *)
val run :
  ?domains:int ->
  ?router:Shard_router.t ->
  shard:Shard.t ->
  clients:int ->
  total_ops:int ->
  step:(client:int -> shard_id:int -> unit -> string) ->
  unit ->
  Kamino_workload.Driver.result
