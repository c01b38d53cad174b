(** Named counters and simulated-time histograms.

    A registry is a flat namespace of monotonic counters and log-linear
    histograms.  Handles are resolved once (at engine creation) so every
    hot-path update is a plain field mutation — no hashing, no
    allocation.  All aggregation is over integers, so percentile
    estimates are deterministic across runs and machines.

    Histogram buckets are log-linear (HdrHistogram-style, 32 sub-buckets
    per octave): values 0..63 each have their own bucket; a value
    [v >= 64] with [s = bits v - 6] lands in bucket [s * 32 + (v lsr s)],
    1856 buckets for OCaml's 62-bit ints.  A percentile is the upper
    bound of the bucket holding its nearest rank, clamped to the observed
    maximum: exact below 64, and never below the exact nearest-rank
    sample nor more than 1/32 above it. *)

type t
type counter
type hist

val create : unit -> t

(** {1 Counters} *)

val counter : t -> string -> counter
(** Find or register. The same name always yields the same handle. *)

val incr : counter -> unit
val add : counter -> int -> unit

val set : counter -> int -> unit
(** Overwrite the value — for gauges synced from an external source. *)

val value : counter -> int

(** {1 Histograms} *)

val hist : t -> string -> hist
(** Find or register, like {!counter}. *)

val observe : hist -> int -> unit
(** Negative samples are clamped to 0. Keeps no sample; allocates
    nothing. *)

val merge : into:hist -> hist -> unit
(** [merge ~into h] adds every sample of [h] to [into] — the same
    histogram as observing both sample sets into one. *)

val count : hist -> int
val sum : hist -> int
val max_value : hist -> int

val mean : hist -> float
(** 0. when empty. *)

val percentile : hist -> float -> int
(** [percentile h p] for [p] in [0..100]; 0 when empty. *)

val percentiles : hist -> float array -> int array
(** [percentiles h ps] maps {!percentile} over [ps] — the p50/p95/p99
    triple every latency report uses. *)

(** {1 Enumeration} *)

val fold_counters : t -> init:'a -> f:('a -> string -> int -> 'a) -> 'a
(** Sorted by name, for deterministic reports. *)

val fold_hists : t -> init:'a -> f:('a -> string -> hist -> 'a) -> 'a
(** Sorted by name. *)
