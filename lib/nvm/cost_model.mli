(** Calibrated nanosecond costs for simulated NVM operations.

    The paper evaluates on DRAM-emulated NVM (NVDIMM speed). The constants
    below are the knobs that determine every latency the benchmarks report;
    [default] targets an NVDIMM-class device, [slow_nvm] a 3D-Xpoint-class
    device (the paper argues Kamino-Tx's advantage only grows there, which
    the ablation benches confirm). *)

type t = {
  store_overhead_ns : float;  (** fixed cost of one store instruction batch *)
  store_ns_per_byte : float;  (** marginal cost per byte written to cache *)
  load_overhead_ns : float;   (** fixed cost of one load batch *)
  load_ns_per_byte : float;   (** marginal cost per byte read *)
  flush_line_ns : float;
      (** issuing the write-back of one dirty 64 B line (clwb); bulk
          write-backs pipeline, so this is bandwidth-bound — the drain
          latency sits in [fence_ns] *)
  fence_ns : float;           (** store fence / drain latency (sfence+ADR) *)
  copy_ns_per_byte : float;   (** bulk memcpy bandwidth cost *)
  copy_overhead_ns : float;   (** fixed cost per memcpy call *)
  alloc_ns : float;           (** allocator bookkeeping instructions *)
  free_ns : float;            (** deallocator bookkeeping instructions *)
  index_ns : float;           (** one hash/index operation (log lookup) *)
  lock_ns : float;            (** acquire or release one object lock *)
  log_entry_ns : float;
      (** creating one data-log (undo/CoW) entry: NVML allocates log
          entries from a transactional pool, which its own measurements put
          near a microsecond per logged range *)
  clflush_ns : float;
      (** one serializing CLFLUSH: the paper-era NVML persisted log
          snapshots line by line with CLFLUSH (CLWB did not exist on that
          hardware), so the copying baselines pay this per snapshot line *)
  tx_overhead_ns : float;
      (** fixed per-transaction machinery every NVML-derived engine pays
          (TX_BEGIN/TX_END setjmp, lane bookkeeping, cache misses) *)
}

(** NVDIMM-class device: persistence at DRAM-like speeds. *)
val default : t

(** 3D-Xpoint-class device: flushes and copies are several times slower. *)
val slow_nvm : t

(** Persistent processor caches / whole-system persistence (§2 of the
    paper): flushes and fences cost nothing, everything else stays —
    atomicity is still required "to protect against bugs, deadlocks or
    live-locks", and Kamino-Tx's copy elimination still pays. *)
val whole_system_persistence : t

(** Cost in ns of storing [len] bytes. *)
val store_cost : t -> int -> float

(** Cost in ns of loading [len] bytes. *)
val load_cost : t -> int -> float

(** Cost in ns of copying [len] bytes with memcpy. *)
val copy_cost : t -> int -> float

(** [loads_beat_fence t ~loads ~bytes] — do [loads] loads of [bytes]
    bytes in all cost less than one fence? The one-fence commit's test:
    it hashes its write set (charged as loads) only where that is cheaper
    than the fence the hash replaces. *)
val loads_beat_fence : t -> loads:int -> bytes:int -> bool

val pp : Format.formatter -> t -> unit
