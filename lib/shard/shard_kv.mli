(** Key-value store over a sharded façade: one {!Kamino_kv.Kv} per shard,
    keys routed by {!Shard.route}. Single-key operations are plain
    single-shard transactions on the owning shard; {!multi_put} commits a
    batch spanning shards atomically through {!Shard.with_cross_tx}. *)

type t

val create : Shard.t -> value_size:int -> node_size:int -> t

(** Re-bind every per-shard store after {!Shard.recover}. *)
val reattach : Shard.t -> t

val shard : t -> Shard.t

(** Shard [i]'s underlying store (white-box tests). *)
val store : t -> int -> Kamino_kv.Kv.t

val size : t -> int

val put : t -> int -> string -> unit

val get : t -> int -> string option

(** [snapshot_get t key] routes the key and serves it from the owning
    shard's backup at {e that shard's} watermark
    ({!Kamino_kv.Kv.snapshot_get}): no locks, so a concurrent cross-shard
    {!multi_put} holding its full lock set cannot block it. Falls back to
    the locked path when the shard cannot serve snapshots. *)
val snapshot_get : ?clock:Kamino_sim.Clock.t -> t -> int -> string option

(** [snapshot_multi_get t keys] is [snapshot_get] per key, in order.
    {b Per-shard consistency}: each key reflects its owning shard's own
    watermark — keys on different shards may be observed at different
    committed prefixes, and there is no cross-shard snapshot point
    (DESIGN.md par12). *)
val snapshot_multi_get :
  ?clock:Kamino_sim.Clock.t -> t -> int list -> (int * string option) list

(** [multi_put t bindings] makes all bindings visible atomically. One
    participating shard: a plain transaction. Several: a cross-shard
    two-phase commit ({!Shard.with_cross_tx}), which raises
    [Invalid_argument] under {!Shard_driver.run} with [domains > 1]:
    there a lane touches only its own shard, so a step may only pass
    bindings of its own shard. *)
val multi_put : t -> (int * string) list -> unit

val validate : t -> (unit, string) result
