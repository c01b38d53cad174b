(** Shared engine state and the variant strategy signature.

    The transaction engine is split in two layers. {!Engine} is the
    kind-independent shell — write-set tracking, lock acquisition, clock
    plumbing, data accessors, observability. Everything a specific engine
    kind does differently lives behind {!type-ops}, a record of strategy
    functions dispatched through [t.strat]; one value of it per kind is
    provided by the variant modules:

    - {!no_logging} (here) — in-place writes, no rollback;
    - {!Undo_variant.ops} — undo-log snapshots in the critical path;
    - {!Cow_variant.ops} — copy-on-write working copies, commit-time
      copy-back;
    - {!Kamino_variant.simple} / {!Kamino_variant.dynamic} — the paper's
      contribution: intent records + in-place writes + background backup
      propagation;
    - {!Intent_variant.ops} — a non-head chain replica (intent log only).

    The state records ([t], [tx], [irec]) are transparent: variants are
    part of the engine's trusted core, not external plugins — they mutate
    the shared scratch directly because the split must cost zero simulated
    nanoseconds and zero allocations versus the former monolith (the
    differential oracle in test_variant_oracle.ml holds it to that).

    Everything here is re-exported through {!Engine}; user code should not
    depend on this module directly. *)

module Region = Kamino_nvm.Region
module Cost_model = Kamino_nvm.Cost_model
module Clock = Kamino_sim.Clock
module Rng = Kamino_sim.Rng
module Heap = Kamino_heap.Heap
module Obs = Kamino_obs.Obs
module Metrics = Kamino_obs.Metrics

type kind =
  | No_logging
  | Undo_logging
  | Cow
  | Kamino_simple
  | Kamino_dynamic of { alpha : float; policy : Backup.policy }
  | Intent_only

val kind_name : kind -> string

type config = {
  heap_bytes : int;
  log_slots : int;
  max_tx_entries : int;
  data_log_bytes : int;
  cost : Cost_model.t;
  crash_mode : Region.crash_mode;
  flush_per_intent : bool;
  global_pending : bool;
}

val default_config : config

(** {1 Typed errors}

    Engine-state misuse raises [Error] with a variant the shard and chaos
    layers can match on (the former interface raised bare [Failure]
    strings). Programming errors against the heap API (freeing an
    unallocated pointer, a field range outside its object) remain
    [Invalid_argument]. *)

type error =
  | Tx_already_active  (** [begin_tx] while a transaction is active *)
  | Tx_finished  (** operation on a committed/aborted/crashed handle *)
  | Tx_not_active  (** stale handle: a different transaction is active *)
  | Intent_log_exhausted of string
      (** no free slot and no way to make one; the payload says where *)
  | Missing_intent of { off : int; len : int }
      (** transactional write not covered by a declared intent *)
  | Abort_unsupported of kind
      (** the kind cannot roll back locally (no-logging, chain replicas) *)
  | Component_missing of string
      (** the kind has no such component (e.g. data log on Kamino) *)
  | Unsupported of string  (** operation undefined for the kind *)
  | Stale_reservation of string
      (** a reservation published by another transaction, after its own
          finished, or a second time *)
  | Unresolved_record of int
      (** [Intent_only]: the named transaction aborted with its intent
          record still [Running]; a peer must resolve it first *)

exception Error of error

(** [error e] raises [Error e]. *)
val error : error -> 'a

(** {1 Shared state} *)

(** One declared write intent of the active transaction. *)
type irec = {
  mutable r_off : int;
  mutable r_len : int;
  mutable r_key : int;  (** write-lock key (owning object's extent) *)
  mutable cow : Data_log.entry option;  (** CoW working copy, if redirected *)
  mutable r_dirty : int;
      (** volatile mask of the 64 B lines written under this intent: bit
          [i] is the [i]-th line the range overlaps; [-1] (the whole
          range) for a written range wider than 62 lines *)
}

type t = {
  mutable e_kind : kind;
  mutable strat : ops;  (** the kind's strategy; swapped on promotion *)
  e_config : config;
  main : Region.t;
  mutable heap : Heap.t;
  ilog_region : Region.t option;
  mutable ilog : Intent_log.t option;
  dlog_region : Region.t option;
  mutable dlog : Data_log.t option;
  mutable bkp : Backup.t option;
  mutable locks : Locks.t;
  mutable appl : Applier.t option;
  mutable clk : Clock.t;
  rng : Rng.t;
  mutable next_tx_id : int;
  mutable active : tx option;
  mutable unresolved : int option;
      (** an [Intent_only] record left [Running], by an aborted
          transaction or found by [recover]: {!Engine.begin_tx} refuses
          until [resolve_from_peer] clears it *)
  mutable alloc_release : int;
      (** when the allocator's volatile mutex was last released *)
  mutable tx_claims : Heap.reservation list;
      (** the active transaction's reservations, newest first *)
  e_obs : Obs.t;
  obs_base : int;
  reg : Metrics.t;
  m_committed : Metrics.counter;
  m_aborted : Metrics.counter;
  m_ranges_coalesced : Metrics.counter;
  m_bytes_saved : Metrics.counter;
  h_dep_wait : Metrics.hist;
  h_applier_lag : Metrics.hist;
  h_queue_depth : Metrics.hist;
  m_snapshot_hits : Metrics.counter;
  m_snapshot_fallbacks : Metrics.counter;
  h_snapshot_staleness : Metrics.hist;
  mutable last_commit_ns : int;
      (** commit sim-ns of the most recent commit — snapshot staleness is
          [last_commit_ns - watermark_ns] at read time *)
  mutable last_write_keys : int list;
  mutable all_regions : Region.t array;
  mutable ws : irec array;  (** pooled write set, [0 .. ws_n-1] live *)
  mutable ws_n : int;
  mutable ws_cow_n : int;  (** entries carrying a CoW redirection *)
  mutable runs : int array;
      (** commit-time scratch: dirty-line runs as [(off, len, key)]
          triples *)
}

and tx = {
  owner : t;
  id : int;
  t_begin : int;
  mutable slot : Intent_log.slot option;
  mutable lock_keys : int list;
  mutable lock_entries : Locks.entry list;
  mutable read_entries : Locks.entry list;
  mutable needs_barrier : bool;
  mutable prepared : bool;
  mutable finished : bool;
}

(** The strategy record. The shell has already done the kind-independent
    part of each operation (active-tx check, lock acquisition, scratch
    bookkeeping) when a hook runs; hooks own only the per-kind durability
    logic. *)
and ops = {
  v_object_granular : bool;
      (** [add_field] declares the whole owning object (dynamic backups
          track copies per object, as in the paper) *)
  v_begin : t -> tx_id:int -> unit;
      (** kind-specific begin work (e.g. open a data-log transaction);
          runs after the tx-overhead charge, before the [tx] record
          exists *)
  v_claim_slot : t -> tx -> Intent_log.slot;
      (** obtain a free intent-log slot, resolving exhaustion the kind's
          way (drain the applier vs. fail) *)
  v_declare :
    t ->
    tx ->
    le:Locks.entry ->
    off:int ->
    len:int ->
    redirectable:bool ->
    Data_log.entry option;
      (** per-kind declare work after the write lock is held: snapshot /
          working copy / backup ensure + intent append. Returns the CoW
          redirection for the new write-set entry, if any. *)
  v_pre_free : t -> tx -> Heap.range -> unit;
      (** runs before [free] declares the deallocator's ranges (CoW folds
          the working copy back into place here) *)
  v_barrier : t -> tx -> unit;
      (** make the kind's log durable (intent-log slot vs. data log) *)
  v_commit : t -> tx -> unit;
      (** durable atomic commit; must end by releasing the transaction's
          locks at the kind's write-release time *)
  v_abort : t -> tx -> unit;  (** roll back; raises on kinds that cannot *)
  v_prepare : t -> tx -> unit;
      (** two-phase prepare: make the write set durable without deciding
          the outcome (Kamino kinds only; others raise [Unsupported]) *)
  v_commit_prepared : t -> tx -> unit;
      (** second half of {!v_commit} after {!v_prepare}: mark committed,
          enqueue propagation, release locks *)
  v_recover : t -> promote_running:(int -> bool) -> unit;
      (** post-crash recovery after the shell reopened the heap.
          [promote_running id] tells the kind to roll a [Running] record
          of transaction [id] {e forward} instead of back — the sharded
          commit marker's all-or-nothing decision. *)
}

(** {1 Component access} *)

val the_ilog : t -> Intent_log.t

val the_dlog : t -> Data_log.t

val the_bkp : t -> Backup.t

val the_appl : t -> Applier.t

(** {1 Kind-generic helpers} *)

val cost : t -> Cost_model.t

val uses_intent_log : kind -> bool

val uses_data_log : kind -> bool

(** Raises {!Error} unless [tx] is the engine's active transaction. *)
val active_tx : tx -> unit

(** Index of the most recent write-set entry covering [len] bytes at
    [abs], or [-1]. *)
val covering_idx : t -> int -> int -> int

(** Index of the write-set entry whose range starts at [off], or [-1]. *)
val ws_find_off : t -> int -> int

(** A zeroed write-set record, for growing the pool. *)
val fresh_irec : unit -> irec

(** Claim the next pooled write-set record (its dirty mask cleared). *)
val ws_push :
  t -> off:int -> len:int -> key:int -> cow:Data_log.entry option -> irec

(** {2 Dirty-line masks} *)

(** [mark_lines r abs len] marks the lines of [abs, abs+len) dirty in [r];
    the bytes must lie inside [r]'s range. *)
val mark_lines : irec -> int -> int -> unit

(** [mark_written t abs len] marks [abs, abs+len) dirty in every write-set
    record it overlaps. *)
val mark_written : t -> int -> int -> unit

(** [emit_runs t r k] appends [r]'s dirty-line runs, clipped to its range,
    to [t.runs] from triple [k]; returns the next free triple. *)
val emit_runs : t -> irec -> int -> int

(** Make everything appended to this transaction's log durable, once
    (dispatches to {!field-v_barrier}). *)
val do_barrier : tx -> unit

(** Flush the write set's ranges against the main heap, without a fence;
    returns how many ranges were selected. *)
val flush_ws : t -> in_place_only:bool -> int

(** Flush the write set's ranges against the main heap, fencing iff at
    least one range was selected. *)
val persist_ws : t -> in_place_only:bool -> unit

(** Intent-log slot of [tx], claimed on first use (dispatches to
    {!field-v_claim_slot}). *)
val claim_slot : tx -> Intent_log.slot

(** Append a write intent, merging into the preceding entry when
    [mergeable] (exact unions only — see the implementation's safety
    argument). *)
val log_intent : t -> Intent_log.slot -> mergeable:bool -> off:int -> len:int -> unit

(** The committed write set's dirty-line runs, coalesced for a full
    backup's applier task (exact merges plus same-object 64 B
    line-threshold gap fills). Adds the ranges merged away to
    [engine.ranges_coalesced] and the declared bytes it does not copy to
    [engine.bytes_saved]. *)
val coalesce_write_set : t -> Intent_log.intent list

(** Modelled applier cost of propagating a committed write set. *)
val task_cost : Cost_model.t -> Intent_log.intent list -> float

(** Dynamic-backup eviction pin predicate. *)
val pinned : t -> int -> bool

(** Aggregate NVM counters over every region of the stack. *)
val main_counters : t -> Region.counters

(** Total NVM footprint of the stack in bytes. *)
val storage_bytes : t -> int

(** Apply every queued backup task. *)
val drain_backup : t -> unit

(** Drain, then check that the backup agrees with the main heap, and a
    dynamic backup's resident map with its look-up table
    ({!Backup.check_resident}). *)
val verify_backup : t -> (unit, string) result

val release_all : tx -> write_release:int -> unit

val finish : tx -> unit

(** [propagate_ranges b main ranges] copies and flushes every range into
    the backup, then fences once ({!Backup.settle}); nothing for [[]]. *)
val propagate_ranges : Backup.t -> Region.t -> Intent_log.intent list -> unit

(** The batching backup applier (see the implementation's merge-safety
    argument). *)
val make_applier : t -> Applier.t

(** {1 Shared per-family paths} *)

(** Abort for the data-log kinds: replay durable undo snapshots newest
    first, persist, close the log transaction, release. *)
val data_log_abort : t -> tx -> unit

(** Recovery for the data-log kinds: restore undo snapshots ([Running])
    or replay commit-time copies ([Applying]). *)
val data_log_recover : t -> unit

(** {1 The trivial baseline} *)

(** No-op [v_pre_free], shared by every non-CoW variant. *)
val no_op_pre_free : t -> tx -> Heap.range -> unit

(** [unsupported what] is a hook that raises [Error (Unsupported what)]. *)
val unsupported : string -> t -> tx -> 'a

(** The [No_logging] strategy: durable but not atomic (Figure 1's
    motivation baseline). *)
val no_logging : ops
