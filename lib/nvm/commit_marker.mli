(** The persistent commit marker: the one decision record of a two-phase
    commit across independent persistence domains. The sharded façade
    ({!Kamino_shard.Shard}, DESIGN.md par11) and the chain cluster's
    cross-chain commit ({!Kamino_cluster.Cluster}, DESIGN.md par14) both
    decide on it.

    {b Layout} (little-endian 8-byte words in a region of its own):
    - [0]: the valid flag, [0] or [1];
    - [8]: the entry count [n], [0 <= n <= max_entries];
    - [16 + 8 * entry_words * k + 8 * j]: word [j] of entry [k].

    {b Persist order.} {!write} stores the count and then every entry,
    flushes them, fences, and only then sets, flushes and fences the flag:
    that last fence is the commit point, and the flag can never be
    durable ahead of the entries it covers. {!clear} resets the flag
    behind its own fence. One decision is in flight at a time, so one
    record suffices. *)

type t

(** [create ~cost ~crash_mode ~seed ~clock ~entry_words ~max_entries]
    makes a cleared marker in a fresh region of
    [16 + 8 * entry_words * max_entries] bytes rounded up to 4 KiB, whose
    crash randomness is seeded with [seed lxor 0x5bd1]. Raises
    [Invalid_argument] unless [entry_words >= 1] and [max_entries >= 0]. *)
val create :
  cost:Cost_model.t ->
  crash_mode:Region.crash_mode ->
  seed:int ->
  clock:Kamino_sim.Clock.t ->
  entry_words:int ->
  max_entries:int ->
  t

(** [write t n word] persists [n] entries, word [j] of entry [k] being
    [word k j], and then the valid flag, each behind its own fence (see
    the header). Taking the words as a function keeps the commit path
    allocation-free. Raises [Invalid_argument] unless
    [0 <= n <= max_entries]. *)
val write : t -> int -> (int -> int -> int) -> unit

(** [clear t] retires the marker: flag [0], flush, fence. *)
val clear : t -> unit

(** [read t] is [None] when the flag is [0] and [Some entries] when it is
    [1]. Raises {!Region.Corrupt} ([structure "Commit_marker"]) on any
    other flag or a count outside [0 .. max_entries]: an image this module
    cannot have written. Recovery must not read it as "no marker": that
    could roll back, on some participants, a transaction that was already
    decided. *)
val read : t -> int array array option

(** The marker's region: clock switching, size, digest and counters. *)
val region : t -> Region.t
