(** YCSB core workloads (Table 3 of the paper).

    | Workload | Read | Update | Insert | Read-modify-write | Distribution |
    |----------|------|--------|--------|-------------------|--------------|
    | A        | 50%  | 50%    |        |                   | zipfian      |
    | B        | 95%  | 5%     |        |                   | zipfian      |
    | C        | 100% |        |        |                   | zipfian      |
    | D        | 95%  |        | 5%     |                   | latest       |
    | F        | 50%  |        |        | 50%               | zipfian      |

    [next t rng] draws one operation; inserts extend the key space, and the
    "latest" distribution skews reads towards recently inserted keys. *)

type workload =
  | A
  | B
  | C
  | D
  | E  (** 95% short range scans / 5% inserts — an extension beyond the
           paper's Table 3, exercising the B+Tree's leaf chain *)
  | F

val workload_of_string : string -> workload option

val name : workload -> string

type op =
  | Read of int
  | Update of int
  | Insert of int  (** a fresh key *)
  | Scan of int * int  (** start key, length *)
  | Rmw of int

type t

(** [create workload ~record_count ~theta] — [record_count] keys are
    assumed preloaded as keys [0 .. record_count-1]. [~uniform:true]
    replaces the zipfian key choice with a uniform one ([theta] is then
    ignored) — the distribution ablation for skew-sensitive paths. *)
val create : ?uniform:bool -> workload -> record_count:int -> theta:float -> t

val next : t -> Kamino_sim.Rng.t -> op

(** Current key-space size (grows with inserts). *)
val key_space : t -> int

val op_name : op -> string
