(** Deterministic pseudo-random number generator.

    A self-contained splitmix64 implementation so that every simulation,
    crash-injection test, and workload generator in the repository is
    reproducible from a single integer seed, independent of the OCaml
    standard library's [Random] state. *)

type t

(** [create seed] returns a fresh generator. Two generators created with the
    same seed produce identical streams. *)
val create : int -> t

(** [copy t] returns an independent generator with the same current state. *)
val copy : t -> t

(** [split t] derives a new, statistically independent generator from [t],
    advancing [t]. Useful to hand private streams to sub-components. *)
val split : t -> t

(** [int64 t] returns the next raw 64-bit output. *)
val int64 : t -> int64

(** [int t bound] returns a uniformly distributed integer in
    [\[0, bound)]. Raises [Invalid_argument] if [bound <= 0]. *)
val int : t -> int -> int

(** [float t] returns a float uniformly distributed in [\[0, 1)]. *)
val float : t -> float

(** [bool t] returns a uniformly distributed boolean. *)
val bool : t -> bool

(** [bernoulli t p] returns [true] with probability [p]. *)
val bernoulli : t -> float -> bool

(** [shuffle t a] permutes array [a] in place (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit
