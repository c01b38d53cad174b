(** The fsck invariant oracle.

    Re-derives every filesystem invariant from the committed heap state,
    independently of {!Fs}'s own accessors (its walks are written
    against {!Fs.Layout} directly, so a bug in the operational code
    cannot hide itself from the check). Run after every schedule of the
    fs crash-matrix dimension: crash at step [k], recover, [fsck].

    Checked invariants:

    - superblock magic/version/geometry, and the {e exact} data-block
      count, which equals the recomputed sum (no other count is
      persisted);
    - the inode table and every directory index pass
      {!Kamino_index.Btree.validate};
    - a regular file's inode object is the size class of
      [{!Fs.Layout.file_inode_size} block_size] (it holds block 0), a
      directory's the class of {!Fs.Layout.inode_size}; every inode's
      reserved word ({!Fs.Layout.i_reserved}) is zero;
    - every dirent's name is valid and hashes to the B+Tree key it is
      chained under; names are unique within a directory; a
      directory's unused size word is 0;
    - every standalone dirent is claimed once; every tagged reference
      ({!Fs.Layout.is_slot}) names the name slot of an inode object of
      the same shard (a reference into an inode object's inline block
      names none), no slot is named twice, a named slot's length is
      in [1..max_name_len] and its [d_ino] is its own inode's ino, and
      the slot of every inode no reference names has length 0;
    - link counts equal dirent references exactly (plus one superblock
      reference for the root); directories have exactly one reference
      (the root none) and their parent pointers match the referencing
      directory; every parent chain reaches a root — so the namespace
      is one acyclic rooted tree;
    - every file's blocks (block 0 inline, then the extent chain's
      pointers, under {!Fs.Layout.blk_holder}'s addressing) cover
      exactly [ceil(size/block_size)] blocks — no orphaned or
      doubly-referenced blocks or chain nodes, a chain exactly as long
      as the blocks past block 0 need (so a file of at most one block
      has a null [i_head]), slots past EOF null, and every byte past EOF
      zero: in the inode object from EOF (or the end of block 0) on,
      for every file, an empty one included, and in the last block when
      it is not block 0 (a torn in-place write that recovery failed to
      roll back shows up here);
    - with [strict_heap] (default true), whole-heap accounting: the set
      of objects the filesystem explains (superblock, B+Tree nodes,
      inodes, dirents, extent nodes, data blocks past block 0) is {e exactly} the
      heap's allocated-object set, and the heap's own structural
      validation passes — nothing leaked, nothing lost. *)

val fsck : ?strict_heap:bool -> Fs.t -> (unit, string) result
(** Single filesystem ([fsck_cluster] over one shard). Emits an
    [op_fsck] span and feeds [fs.op_ns.fsck]. *)

val fsck_cluster : ?strict_heap:bool -> Fs.t array -> (unit, string) result
(** The sharded façade's oracle: per-shard checks on every shard plus
    the cross-shard ones — shard [i] of [n] must own ino congruence
    class [(i, n)], dirents may reference inodes on any shard, link
    counts and parent chains are checked globally, and exactly shard 0
    carries the root. *)
