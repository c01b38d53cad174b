(** A small POSIX-flavored filesystem over the transactional engine.

    The application layer the paper's evaluation shape calls for: deep
    object graphs, variable-size data and cross-object invariants, none
    of which a KV point-write mix exercises. Every operation —
    [create], [write], [mkdir], [readdir], [rename], [unlink],
    [truncate], ... — is one multi-object transaction, so under every
    engine kind the filesystem is all-or-nothing at any crash point
    (modulo [No_logging], which is exactly Figure 1's motivation), and
    {!Fs_check.fsck} can re-derive every invariant from the committed
    heap after recovery.

    {b On-heap layout} (all fields are 8-byte words unless noted; see
    {!Layout} for offsets):

    - {e superblock}: anchored at the heap root. Magic, version, the
      inode-table B+Tree descriptor, the inode-number class ([ino_base],
      [ino_stride] — the stride is how the sharded façade gives each
      shard its own congruence class), the root directory's ino, the
      exact data-block count that fsck recomputes, and the geometry.
      Nothing recovery can recompute is persisted: the next inode
      ordinal is a DRAM cursor, set past the inode table's largest key
      at {!attach}, so a create does not write the superblock.
    - {e inode table}: a {!Kamino_index.Btree} mapping ino -> inode
      object.
    - {e inode}: ino, kind (file/dir), link count, size (file bytes; 0
      for a directory, whose entry count {!stat} computes from its
      index), parent ino (directories; the root is its own parent; files
      carry [-1]), a generation counter bumped by rename, a head pointer
      — extent-chain head for files, the directory-index B+Tree
      descriptor for directories — and [i_blk0], a file's block 0 (64
      bytes in all, one size class). Adding or removing a dirent writes
      the directory's index and dirents, never its inode.
    - {e directory index}: a B+Tree mapping [hash(name) land mask] ->
      head of a chain of {e dirent} objects (collision chain through
      [d_next]); each dirent holds the target ino and the name (up to
      {!Layout.max_name_len} bytes). [dir_hash_bits] can be tiny in
      tests to force collisions.
    - {e file blocks}: block 0 hangs off the inode ([i_blk0]); block
      [b >= 1] sits in slot [(b - 1) mod ext_slots] of extent-chain
      node [(b - 1) / ext_slots], each node holding
      {!Layout.ext_slots} data-block pointers ({!Layout.blk_holder},
      {!Layout.blk_slot}: the one rule every walk, fsck's included,
      uses). A file of size [s] owns {e exactly} [nb = ceil(s /
      block_size)] blocks and exactly [ceil((nb - 1) / ext_slots)]
      chain nodes, so a file of at most one block has no chain and a
      null [i_head]. No holes ever materialize as missing blocks
      (sparse writes allocate zeroed blocks), slots past EOF are null,
      and bytes past EOF in the last block are zero, which makes torn
      writes visible to fsck.

    Objects per operation on a one-block file: [create] allocates two
    (inode, dirent), its first [write] one (the block), and [unlink]
    frees three (inode, block, dirent).

    The superblock's [version] is {!Layout.version} (3; version 2 kept
    inode, directory and byte counters and the inode cursor in the
    superblock and each directory's entry count in its inode, version 1
    also kept block 0 in the chain). {!attach} refuses any other
    version.

    Transactions follow the engine's granularity argument: metadata
    objects are declared whole (they are a cache line or two), file
    data is declared with byte-range [add_field] intents on exactly the
    written span — what makes the copying baselines pay for whole-block
    logging while Kamino logs 8-byte-scale intents. Each operation looks
    everything up once and declares its whole write set before its first
    write, so it pays one intent-log barrier however many objects it
    touches, unless a B+Tree split or merge adds its own (DESIGN.md §18).

    The [*_tx] variants take a caller-owned transaction. The plain
    variants open their own transaction, emit a {!Kamino_obs.Obs.k_fs_op}
    span and feed the [fs.op_ns.<op>] histogram of the engine's metrics
    registry. Crash tests inject a power failure at every fence of an
    operation ({!Kamino_nvm.Region.at_fence}), the applier's and
    recovery's included, and check fsck plus the before-or-after state. *)

module Engine = Kamino_core.Engine
module Heap = Kamino_heap.Heap
module Btree = Kamino_index.Btree

exception Fs_error of string
(** Semantic failure (name exists, directory not empty, would create a
    cycle, ...). Raised before any mutation, so an aborted operation
    leaves no trace even on engines that cannot roll back. *)

(** Word offsets of every persistent structure — exported so
    {!Fs_check} and white-box tests can read the heap independently of
    this module's accessors. *)
module Layout : sig
  val sb_magic : int
  val sb_version : int
  val sb_itab : int
  val sb_ino_base : int
  val sb_ino_stride : int
  val sb_root_ino : int
  val sb_block_count : int
  val sb_block_size : int
  val sb_hash_bits : int
  val sb_size : int
  val magic : int
  val version : int

  val i_ino : int
  val i_kind : int
  val i_nlink : int
  val i_size : int
  val i_parent : int
  val i_gen : int
  val i_head : int
  val i_blk0 : int
  val inode_size : int
  val kind_file : int
  val kind_dir : int

  val d_next : int
  val d_ino : int
  val d_nlen : int
  val d_name : int
  val max_name_len : int
  val dirent_size : int

  val e_next : int
  val e_slot : int -> int
  val ext_slots : int
  val ext_size : int

  val blk_holder : int -> int
  (** Block [b]'s pointer lives in holder [blk_holder b]: holder 0 is the
      inode, holder [k >= 1] is extent-chain node [k - 1]. *)

  val blk_slot : int -> int
  (** ... at offset [blk_slot b] there: [i_blk0] for block 0, slot
      [e_slot ((b - 1) mod ext_slots)] of its node for the rest. *)

  val link_off : int -> int
  (** Holder [k] links to holder [k + 1] through this word: [i_head] for
      the inode, [e_next] for a chain node. *)

  val ext_nodes : int -> int
  (** Chain nodes a file of [nb] blocks owns: [ceil ((nb - 1) / ext_slots)],
      none for [nb <= 1]. *)

  val itab_node_size : int
  val dir_node_size : int
end

type t

type kind = File | Dir

type stat = {
  ino : int;
  kind : kind;
  nlink : int;
  size : int;  (** file bytes, or directory entry count (computed by {!stat}) *)
  parent : int;  (** containing directory (dirs only; root = own ino) *)
  gen : int;  (** bumped by every rename of this inode *)
}

(** {1 Lifecycle} *)

(** [format engine] initializes a filesystem on an empty engine heap:
    superblock (becomes the heap root), inode table, and — unless
    [with_root:false] — the root directory, all in one transaction.

    [block_size] (default 512, multiple of 8) is the data-block payload
    size; [dir_hash_bits] (default 40) masks the directory name hash
    ([2] in tests forces collision chains). [ino_base]/[ino_stride]
    (defaults 0/1) put this filesystem's inos on the congruence class
    [base + k * stride] — shard [i] of [n] uses [(i, n)] so every shard
    allocates inos it owns. [with_root:false] is for non-root shards of
    the sharded façade, whose namespace hangs off shard 0's root.

    [obs_track] (default 4) is the Perfetto track for
    {!Kamino_obs.Obs.k_fs_op} spans, named ["fs.ops"]. *)
val format :
  ?block_size:int ->
  ?dir_hash_bits:int ->
  ?ino_base:int ->
  ?ino_stride:int ->
  ?with_root:bool ->
  ?obs_track:int ->
  Engine.t ->
  t

(** [attach engine] reopens a formatted filesystem (e.g. a fresh
    process after a crash — within a process, handles survive
    {!Engine.crash}/{!Engine.recover} unchanged) and sets the handle's
    inode cursor past the inode table's largest key. Several handles may
    share one engine: a create whose cursor meets a live inode skips
    past the table's largest key. Raises [Region.Corrupt],
    [off] naming the [Layout.sb_*] word, if the heap root is not a
    superblock or any header word is out of range: a [version] other than
    {!Layout.version}, a [block_size] outside [8..Heap.max_object_size] or
    not a multiple of 8, [hash_bits] outside [1..61], [ino_base]/[ino_stride]
    breaking [0 <= ino_base < ino_stride], or an [itab] descriptor that is
    not an allocated object. *)
val attach : ?obs_track:int -> Engine.t -> t

val engine : t -> Engine.t
val block_size : t -> int
val root_ino : t -> int
(** Raises [Fs_error] on a filesystem formatted [with_root:false]. *)

val has_root : t -> bool
val ino_base : t -> int
val ino_stride : t -> int

(** {1 Operations}

    Directories are named by ino ([dir]); the root comes from
    {!root_ino}. Each call is one transaction. *)

val create : t -> dir:int -> string -> int
(** Create an empty regular file; returns its ino. Raises [Fs_error]
    if the name exists. *)

val mkdir : t -> dir:int -> string -> int

val lookup : t -> dir:int -> string -> int option
(** Committed-state name lookup (single-shard view; dangling entries of
    a sharded namespace resolve to [None] only via {!Shard_fs}). Each
    dirent on the name's chain costs one load of its length word and name
    ({!Engine.peek_prefixed}); a length word outside
    [\[0, Layout.max_name_len\]] raises [Kamino_nvm.Region.Corrupt],
    as it does in {!readdir} and every in-transaction chain walk. *)

val resolve : t -> string -> int option
(** ["/a/b/c"]-style path walk from the root (committed state). *)

val stat : t -> int -> stat
(** Committed state. A directory's [size] walks its index and collision
    chains; {!kind_of} and {!parent_of} read one inode word. *)

val kind_of : t -> int -> kind
val parent_of : t -> int -> int

val write : t -> ino:int -> off:int -> string -> unit
(** Write bytes at [off], extending the file as needed; a write past
    EOF materializes the gap as zeroed blocks. *)

val read : t -> ino:int -> off:int -> len:int -> string
(** Read up to [len] bytes at [off]; short at EOF. *)

val readdir : t -> dir:int -> (string * int) list
(** All entries, in name-hash order (deterministic). *)

val rename :
  t ->
  src:int ->
  src_name:string ->
  dst:int ->
  dst_name:string ->
  unit
(** Atomically move [src_name] in directory [src] to [dst_name] in
    directory [dst]: drops the source dirent, adds the target dirent,
    bumps the moved inode's generation and (for directories) rewrites
    its parent pointer — one transaction touching source dir, target
    dir and the moved inode, the classic atomicity test. An existing
    [dst_name] regular file is replaced (and its last link dropped);
    anything else there raises [Fs_error], as does moving a directory
    under its own subtree (cycle). *)

val link : t -> ino:int -> dir:int -> string -> unit
(** Hard link (regular files only). *)

val unlink : t -> dir:int -> string -> unit
(** Drop a regular file's dirent; at link count zero the inode, its
    extent chain and every data block are freed in the same
    transaction. *)

val rmdir : t -> dir:int -> string -> unit
(** Remove an {e empty} directory (dirent, index tree, inode). *)

val truncate : t -> ino:int -> len:int -> unit
(** Grow (zero-filled) or shrink; shrinking frees blocks and trailing
    extent nodes and re-zeroes the kept tail. *)

val dump : t -> string
(** Human-readable recursive tree listing (committed state), entries
    sorted by name. *)

(** {1 Transactional primitives}

    Building blocks of the composite operations, exported for the
    sharded façade ({!Shard_fs}), which runs each piece on the owning
    shard's transaction inside one cross-shard 2PC. All take the
    transaction of {e this} filesystem's engine. *)

val create_tx : Engine.tx -> t -> dir:int -> string -> int
val write_tx : Engine.tx -> t -> ino:int -> off:int -> string -> unit

val mknod_tx : Engine.tx -> t -> kind -> parent:int -> int
(** Allocate an ino (from this filesystem's congruence class) and its
    inode with link count 1; directories get a fresh empty index.
    Does {e not} add a dirent — the caller links it, possibly on
    another shard. *)

val dirent_add_tx :
  Engine.tx -> t -> dir:int -> name:string -> ino:int -> unit
(** Insert a dirent (no existence check beyond name validity — use
    {!dirent_lookup_tx} first). Neither the directory's inode nor the
    target inode is written (the target may live on another shard). *)

val dirent_remove_tx :
  Engine.tx -> t -> dir:int -> name:string -> int
(** Remove a dirent and return the ino it referenced. The target inode
    is untouched. *)

val dirent_lookup_tx : Engine.tx -> t -> dir:int -> name:string -> int option

val add_link_tx : Engine.tx -> t -> ino:int -> unit
(** Increment a regular file's link count. *)

val drop_file_link_tx :
  Engine.tx -> t -> ino:int -> unit
(** Decrement a regular file's link count; at zero, free the inode,
    extent chain and data blocks and retire it from the inode table. *)

val dir_empty_tx : Engine.tx -> t -> ino:int -> bool
(** Whether directory [ino] has no entry: a probe of its index root, not
    a walk. *)

val free_dir_tx : Engine.tx -> t -> ino:int -> unit
(** Free an {e empty, already unlinked} directory: index tree, inode,
    inode-table entry. Raises [Fs_error], before any write, if it is not
    empty. *)

val touch_moved_tx : Engine.tx -> t -> ino:int -> new_parent:int option -> unit
(** Rename's inode-side half: bump the generation and, for a moved
    directory, set the new parent. *)

val check_name : string -> unit
(** Raises [Fs_error] unless the name is 1..{!Layout.max_name_len}
    bytes with no ['/'] or NUL and is not ["."] / [".."]. *)

val name_hash_raw : string -> int
(** The full-width (pre-mask) deterministic name hash — the sharded
    façade's placement input. *)

(** {1 Introspection (fsck, tests)} *)

val superblock : t -> Heap.ptr
val itab : t -> Btree.t
val hash_name : t -> string -> int
val inode_ptr : t -> int -> Heap.ptr option
(** Committed inode-table lookup. *)

val op_create : int
val op_mkdir : int
val op_write : int
val op_read : int
val op_readdir : int
val op_rename : int
val op_unlink : int
val op_truncate : int
val op_link : int
val op_rmdir : int
val op_fsck : int
val op_name : int -> string

val record_op : t -> op:int -> t0:int -> ino:int -> aux:int -> unit
(** Observe a completed operation that ran outside {!op_span}'s
    wrappers (fsck): feeds [fs.op_ns.<op>] and emits the k_fs_op span
    with [dur = now - t0]. *)
