(** The replicated command language.

    Chain replicas receive operations "in the form of a remote procedure
    call with a named function and the arguments to the function" (§5.1) —
    i.e. commands must be serializable and deterministic, so every replica
    computes the same state. [Append] stands in for deterministic
    read-modify-writes.

    The wire format is a length-prefixed byte string with a tag byte, used
    by the persistent operation queues. *)

type t =
  | Put of int * string
  | Delete of int
  | Append of int * string  (** append to the existing value, if any *)
  | Batch of t list
      (** sub-commands applied atomically in order, inside one transaction —
          the per-shard unit of a cross-chain multi-put *)

(** [apply op kv] executes the command (one transaction). *)
val apply : t -> Kamino_kv.Kv.t -> unit

(** [apply_tx tx op kv] executes the command inside a caller-owned
    transaction, so a replica can atomically pair it with its own
    bookkeeping (exactly-once execution across reboots). *)
val apply_tx : Kamino_core.Engine.tx -> t -> Kamino_kv.Kv.t -> unit

(** [encode op] — wire bytes (tag, key, payload). *)
val encode : t -> string

(** [add_encoded buf op] appends [encode op] to [buf] without building
    the intermediate string. *)
val add_encoded : Buffer.t -> t -> unit

(** [decode s] — inverse of [encode]. Raises {!Kamino_nvm.Region.Corrupt}
    ([structure "Op"], [off] at the failing field's byte position) on
    garbage, never the generic [Failure] any library function may
    raise. *)
val decode : string -> t

(** [decode_sub b pos len] decodes the command in [b.[pos .. pos+len)] in
    place: tag, key and lengths are read where they lie and only values
    are copied out. Every read is bounds-checked against that range (and
    the range against [b]), so garbage raises [Region.Corrupt], [off]
    being a position in [b], and nothing else. *)
val decode_sub : bytes -> int -> int -> t

val equal : t -> t -> bool
