(** Zipfian key-popularity distributions, as used by YCSB.

    Implements the classic Gray et al. sampling method with a precomputed
    zeta normalization. [sample] returns a {e rank} (0 = most popular);
    [sample_scrambled] hashes the rank over the key space so hot keys are
    spread out, which is what YCSB's ScrambledZipfian does and what the
    paper's workloads imply. *)

type t

(** [create ~n ~theta] over ranks [0, n). YCSB's default skew is
    [theta = 0.99]. Raises [Invalid_argument] unless [n > 0] and
    [0 < theta < 1]. *)
val create : n:int -> theta:float -> t

(** [sample t rng] draws a rank in [0, n), rank 0 being the hottest. *)
val sample : t -> Kamino_sim.Rng.t -> int

(** [sample_scrambled t rng] draws a key in [0, n) with zipfian popularity
    but hash-scattered identity. *)
val sample_scrambled : t -> Kamino_sim.Rng.t -> int

(** [scramble n rank] is the pure hash [sample_scrambled] applies to a
    sampled rank to scatter hot ranks over the [n]-key space. Exposed so
    tests can pin [sample_scrambled = scramble n (sample t rng)] without
    re-deriving the hash. *)
val scramble : int -> int -> int
