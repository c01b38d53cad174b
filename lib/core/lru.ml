(* The nodes form a ring closed by a sentinel, [root]: [root.next] is the
   most recently used node and [root.prev] the least. Linking and
   unlinking allocate nothing. *)
type node = {
  key : int;
  slot : int;
  mutable bucket : int;
  mutable prev : node; (* towards MRU *)
  mutable next : node; (* towards LRU *)
}

type t = { table : (int, node) Hashtbl.t; root : node }

let detached key ~slot ~bucket =
  let rec n = { key; slot; bucket; prev = n; next = n } in
  n

(* [size_hint] pre-sizes the key table: at millions of resident copies the
   default 1024 buckets would force a cascade of doubling rehashes while
   reattaching after a crash. *)
let create ?(size_hint = 1024) () =
  {
    table = Hashtbl.create (max 16 size_hint);
    root = detached 0 ~slot:(-1) ~bucket:(-1);
  }

let length t = Hashtbl.length t.table

let find t key = Hashtbl.find t.table key

let key n = n.key

let slot n = n.slot

let bucket n = n.bucket

let set_bucket n b = n.bucket <- b

let unlink n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev

let push_front t n =
  let first = t.root.next in
  n.prev <- t.root;
  n.next <- first;
  first.prev <- n;
  t.root.next <- n

let add t key ~slot ~bucket =
  let n = detached key ~slot ~bucket in
  Hashtbl.add t.table key n;
  push_front t n

let touch t n =
  unlink n;
  push_front t n

let remove t n =
  unlink n;
  Hashtbl.remove t.table n.key

let evict_candidate t ~locked =
  let rec walk n =
    if n == t.root then None else if locked n.key then walk n.prev else Some n
  in
  walk t.root.prev

let iter t f =
  let rec walk n =
    if n != t.root then begin
      let towards_mru = n.prev in
      f n;
      walk towards_mru
    end
  in
  walk t.root.prev
