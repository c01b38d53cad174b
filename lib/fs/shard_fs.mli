(** Inode-number-routed sharded filesystem façade.

    One namespace over [n] independent shards ({!Kamino_shard.Shard}):
    shard [i] formats its filesystem with ino class [(base = i,
    stride = n)], so [owner ino = ino mod n] and every shard's inode
    allocator only ever issues inos it owns — the {!Shard_kv}-style
    routing rule, adapted because fs object placement follows the inode,
    not a client key. Directories (index + dirents) live with the
    directory's inode; file extents live with the file's inode; shard 0
    carries the root.

    A new inode's shard is chosen deterministically from the parent ino
    and the name hash, so namespaces spread without any volatile
    placement state.

    Operations that touch a single shard run as plain single-shard
    transactions; operations whose objects span shards (create/mkdir
    placing the child elsewhere, unlink/rmdir of a foreign inode,
    rename across directories, link) run under
    {!Kamino_shard.Shard.with_cross_tx} — ordered acquisition, 2PC
    against the persistent commit marker — so every fs operation is
    all-or-nothing across shards at every crash point. Only the Kamino
    engine kinds support cross-shard commit.

    The sharded fs crash tests crash at every fence of an operation
    ({!Kamino_nvm.Region.at_fence}), counted across every shard and the
    marker region: the fence that makes the marker's valid flag durable
    is the commit point, before it a crash must roll every shard back,
    from it on every shard rolls forward. *)

module Engine = Kamino_core.Engine
module Shard = Kamino_shard.Shard

type t

val create :
  ?config:Engine.config ->
  ?obs:Kamino_obs.Obs.t ->
  ?obs_track_base:int ->
  ?block_size:int ->
  ?dir_hash_bits:int ->
  kind:Engine.kind ->
  seed:int ->
  shards:int ->
  unit ->
  t
(** Build the shard set and format every shard's filesystem (root on
    shard 0). Shard [i]'s fs spans emit on track
    [obs_track_base + 4i + 3] (the slot the shard façade leaves free),
    named ["shard<i>.fs"]. *)

val shard : t -> Shard.t
val fss : t -> Fs.t array
(** All shards' filesystems, indexed by shard — what
    {!Fs_check.fsck_cluster} takes. *)

val owner : t -> int -> int
(** [owner t ino = ino mod shards]. *)

val root_ino : t -> int

val crash : t -> unit
val recover : t -> unit
(** {!Shard.recover}: a durable commit marker promotes its cross-shard
    participants, so half-finished fs operations roll forward on every
    shard or back on every shard. Handles stay valid. *)

val drain_backups : t -> unit

(** {1 Operations} — same contracts as the {!Fs} equivalents. *)

val create_file : t -> dir:int -> string -> int
val mkdir : t -> dir:int -> string -> int
val link : t -> ino:int -> dir:int -> string -> unit
val unlink : t -> dir:int -> string -> unit
val rmdir : t -> dir:int -> string -> unit

val rename :
  t ->
  src:int ->
  src_name:string ->
  dst:int ->
  dst_name:string ->
  unit

val write : t -> ino:int -> off:int -> string -> unit
val read : t -> ino:int -> off:int -> len:int -> string
val readdir : t -> dir:int -> (string * int) list
val lookup : t -> dir:int -> string -> int option
val resolve : t -> string -> int option
val stat : t -> int -> Fs.stat
