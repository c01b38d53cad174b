(** Synchronous KV client over a {!Cluster}: routes every key to its
    owning shard-chain, drives the shared simulation to completion per
    call (closed loop), and exposes the cross-shard atomic [multi_put].
    For event-driven open-loop access use {!Cluster.submit} /
    {!Cluster.multi_put} / {!Cluster.read} directly. *)

type t

val create : Cluster.t -> t

(** Writes propagate through the owning chain (head to tail) before the
    call returns; [multi_put] additionally runs the persistent-marker 2PC
    over the participant heads when the bindings span several chains. *)

val put : t -> int -> string -> unit

val multi_put : t -> (int * string) list -> unit

(** Served by the owning chain's tail. *)
val get : t -> int -> string option

(** Lock-free snapshot read served from the owning chain head's backup
    image at its published watermark; falls back to an ordinary tail read
    while the head cannot serve snapshots (chain wedged under a prepared
    cluster transaction, or promotion still building the backup). *)
val snapshot_get : ?clock:Kamino_sim.Clock.t -> t -> int -> string option
