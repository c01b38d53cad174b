(** A growable max-heap of ints: the heap's per-class free extents and
    the dynamic backup's per-length free slots, each handed out highest
    first. *)

type t

val create : unit -> t

val is_empty : t -> bool

(** [insert h v] adds [v], in O(log n). *)
val insert : t -> int -> unit

(** [pop_max h] removes and returns the largest element, in O(log n).
    Raises [Invalid_argument] when [h] is empty. *)
val pop_max : t -> int

(** The elements, in no particular order. *)
val to_list : t -> int list
