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
    - every dirent's name is valid and hashes to the B+Tree key it is
      chained under; names are unique within a directory; a
      directory's unused size word is 0;
    - link counts equal dirent references exactly (plus one superblock
      reference for the root); directories have exactly one reference
      (the root none) and their parent pointers match the referencing
      directory; every parent chain reaches a root — so the namespace
      is one acyclic rooted tree;
    - every file's block pointers ([i_blk0], then the extent chain,
      under {!Fs.Layout.blk_holder}'s addressing) cover exactly
      [ceil(size/block_size)] blocks — no orphaned or doubly-referenced
      blocks or chain nodes, a chain exactly as long as the blocks past
      block 0 need (so a file of at most one block has a null
      [i_head]), slots past EOF null, and every byte past EOF in the
      last block zero (a torn in-place write that recovery failed to
      roll back shows up here);
    - with [strict_heap] (default true), whole-heap accounting: the set
      of objects the filesystem explains (superblock, B+Tree nodes,
      inodes, dirents, extent nodes, data blocks) is {e exactly} the
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
