module Heap = Kamino_heap.Heap
module Engine = Kamino_core.Engine

type t = { engine : Engine.t; desc : Heap.ptr; mk : int }

(* Descriptor object fields. [d_count] is a retired key count: written 0
   at create and never maintained, because a word that every insert and
   delete bumps puts the descriptor into every write set. It stays in the
   layout so descriptors, heap images and old stores keep their shape. *)
let d_root = 0
let d_count = 8
let d_node_cap = 16
let desc_size = 24

(* Node fields. [mk] keys at [keys_base], [mk + 1] pointer slots at
   [ptrs_base]: values for leaves (slot i pairs with key i), children for
   internal nodes (slot i is the subtree left of key i; slot nkeys is the
   rightmost child). *)
let n_flags = 0
let n_nkeys = 8
let n_next = 16
let keys_base = 24

let ptrs_base mk = keys_base + (8 * mk)

let mk_of_capacity cap = (cap - 32) / 16

(* Node accessors, parameterized by a reader so the same traversal code
   serves committed-state lookups (peek) and in-transaction reads. *)
type reader = { rd : Heap.ptr -> int -> int }

let peek_reader engine = { rd = (fun p off -> Engine.peek_int engine p off) }

let tx_reader tx = { rd = (fun p off -> Engine.read_int tx p off) }

(* The full backup mirrors the main heap at identical offsets, so the
   same traversal code serves snapshot lookups verbatim — node pointers
   read from the backup image are offsets into that same image. *)
let snapshot_reader snap = { rd = (fun p off -> Engine.snapshot_read_int snap p off) }

(* Cost-free committed reads for observability walks (depth/occupancy
   gauges): the traversal charges nothing to the NVM cost model, so
   sampling gauges cannot perturb bit-identity oracles. *)
let probe_reader engine = { rd = (fun p off -> Engine.probe_int engine p off) }

let is_leaf r node = r.rd node n_flags = 1

let nkeys r node = r.rd node n_nkeys

let next_leaf r node = r.rd node n_next

let key_at r node i = r.rd node (keys_base + (8 * i))

let ptr_at t r node i = r.rd node (ptrs_base t.mk + (8 * i))

(* Position of the first key >= [key], by binary search. Top-level rec
   (not a local closure) so the search allocates nothing per node. *)
let rec lb_scan r node key lo hi =
  if lo >= hi then lo
  else begin
    let mid = (lo + hi) / 2 in
    if key_at r node mid < key then lb_scan r node key (mid + 1) hi
    else lb_scan r node key lo mid
  end

let lower_bound r node n key = lb_scan r node key 0 n

(* Child index to descend into for [key]: number of keys <= key. *)
let child_index r node n key =
  let i = lower_bound r node n key in
  if i < n && key_at r node i = key then i + 1 else i

(* --- Construction ------------------------------------------------------- *)

let min_node_size = 96

let alloc_node tx ~node_cap ~leaf =
  let node = Engine.alloc tx node_cap in
  Engine.write_int tx node n_flags (if leaf then 1 else 0);
  Engine.write_int tx node n_nkeys 0;
  Engine.write_int tx node n_next Heap.null;
  node

let create_sizes ~node_size =
  if node_size < min_node_size then
    invalid_arg (Printf.sprintf "Btree.create: node_size must be >= %d" min_node_size);
  [ desc_size; node_size ]

let create_in tx ~desc ~root =
  (* The heap rounds to a size class; the branching factor follows the
     actual capacity, recorded in the descriptor for reattachment. *)
  let node_cap = Heap.capacity (Engine.heap (Engine.tx_engine tx)) root in
  Engine.write_int tx root n_flags 1;
  Engine.write_int tx root n_nkeys 0;
  Engine.write_int tx root n_next Heap.null;
  Engine.write_int tx desc d_root root;
  Engine.write_int tx desc d_count 0;
  Engine.write_int tx desc d_node_cap node_cap;
  let engine = Engine.tx_engine tx in
  { engine; desc; mk = mk_of_capacity node_cap }

(* Two allocations, two barriers: a standalone tree costs what it always
   did, so the stores built on it keep their setup timeline. Callers that
   fold the tree into a larger plan use [create_sizes] and [create_in]. *)
let create tx ~node_size =
  ignore (create_sizes ~node_size);
  let desc = Engine.alloc tx desc_size in
  create_in tx ~desc ~root:(Engine.alloc tx node_size)

let descriptor t = t.desc

let attach engine desc =
  let node_cap = Engine.peek_int engine desc d_node_cap in
  { engine; desc; mk = mk_of_capacity node_cap }

let root_of r t = r.rd t.desc d_root

let node_cap t = Engine.peek_int t.engine t.desc d_node_cap

let branching t = t.mk

(* --- Bulk array edits (within a transaction) ----------------------------

   Keys and pointer slots are moved with bulk byte copies; the engine
   routes them through the CoW redirect when needed and charges realistic
   memmove-style costs. *)

let read_span tx node off len = if len = 0 then Bytes.create 0 else Engine.read_bytes tx node off len

let write_span tx node off b = if Bytes.length b > 0 then Engine.write_bytes tx node off b

(* Open a gap of one key slot at index [j] (and one pointer slot at [pj])
   in a node currently holding [n] keys. *)
let open_gap tx t node n ~j ~pj =
  let moved_keys = read_span tx node (keys_base + (8 * j)) (8 * (n - j)) in
  write_span tx node (keys_base + (8 * (j + 1))) moved_keys;
  let pn = n + 1 in
  let moved = read_span tx node (ptrs_base t.mk + (8 * pj)) (8 * (pn - pj)) in
  write_span tx node (ptrs_base t.mk + (8 * (pj + 1))) moved

(* Close the gap at key index [j] / pointer index [pj]. *)
let close_gap tx t node n ~j ~pj =
  let moved_keys = read_span tx node (keys_base + (8 * (j + 1))) (8 * (n - j - 1)) in
  write_span tx node (keys_base + (8 * j)) moved_keys;
  let pn = n + 1 in
  let moved = read_span tx node (ptrs_base t.mk + (8 * (pj + 1))) (8 * (pn - pj - 1)) in
  write_span tx node (ptrs_base t.mk + (8 * pj)) moved

let set_key tx node i v = Engine.write_int tx node (keys_base + (8 * i)) v

let set_ptr tx t node i v = Engine.write_int tx node (ptrs_base t.mk + (8 * i)) v

let set_nkeys tx node n = Engine.write_int tx node n_nkeys n

(* Copy the span of keys [from, from+cnt) and pointers [pfrom, pfrom+pcnt)
   from [src] to [dst] starting at [dj]/[pdj]. *)
let move_span tx t ~src ~dst ~from ~cnt ~pfrom ~pcnt ~dj ~pdj =
  let keys = read_span tx src (keys_base + (8 * from)) (8 * cnt) in
  write_span tx dst (keys_base + (8 * dj)) keys;
  let ptrs = read_span tx src (ptrs_base t.mk + (8 * pfrom)) (8 * pcnt) in
  write_span tx dst (ptrs_base t.mk + (8 * pdj)) ptrs

(* --- Lookup -------------------------------------------------------------- *)

let rec find_in r t node key =
  let n = nkeys r node in
  if is_leaf r node then begin
    let i = lower_bound r node n key in
    if i < n && key_at r node i = key then Some (ptr_at t r node i) else None
  end
  else find_in r t (ptr_at t r node (child_index r node n key)) key

let find t key =
  let r = peek_reader t.engine in
  find_in r t (root_of r t) key

let find_tx tx t key =
  let r = tx_reader tx in
  find_in r t (root_of r t) key

(* Lookup entirely inside a backup snapshot: root pointer, node capacity
   and every node are read from the backup image, so the traversal
   observes one prefix-consistent tree regardless of what has propagated
   since. [t.mk] is immutable after [create] (the descriptor's
   [d_node_cap] is written once), so the live handle's branching factor
   is valid for the snapshot's tree. *)
let find_snapshot snap t key =
  let r = snapshot_reader snap in
  find_in r t (root_of r t) key

(* --- Insertion ----------------------------------------------------------- *)

(* One descent to the leaf where [key] is bound or would go: everything
   [insert_at] and [delete_at] need, so a caller that looks a key up,
   declares, allocates and then mutates descends once. A cursor is
   reusable scratch: [seek_into] refills it in place and allocates nothing
   once [path] has grown to the tree's height, so a store keeps one per
   handle and its lookups stay allocation-free. Valid until the tree
   changes or the cursor is sought again. *)
type cursor = {
  mutable key : int;
  mutable leaf : Heap.ptr;
  mutable n : int;  (* keys in [leaf] *)
  mutable i : int;  (* position of the first key >= [key] *)
  mutable found : Heap.ptr;  (* value bound to [key], [Heap.null] if none *)
  mutable path : int array;  (* node, child index per internal level, root first *)
  mutable depth : int;  (* internal levels recorded in [path] *)
}

let cursor () =
  { key = 0; leaf = Heap.null; n = 0; i = 0; found = Heap.null; path = [||]; depth = 0 }

let path_node c lvl = c.path.(2 * lvl)

let path_index c lvl = c.path.((2 * lvl) + 1)

let record c lvl node i =
  let len = Array.length c.path in
  if (2 * lvl) + 2 > len then begin
    let grown = Array.make (max 8 (2 * len)) 0 in
    Array.blit c.path 0 grown 0 len;
    c.path <- grown
  end;
  c.path.(2 * lvl) <- node;
  c.path.((2 * lvl) + 1) <- i

(* Descend from [node] at level [lvl] to a leaf, recording each internal
   hop in [c]: towards [key], or along the last child when [rightmost]
   (the bulk append's spine). Returns the leaf. *)
let rec descend r t c ~rightmost key node lvl =
  if is_leaf r node then begin
    c.depth <- lvl;
    node
  end
  else begin
    let n = nkeys r node in
    let i = if rightmost then n else child_index r node n key in
    record c lvl node i;
    descend r t c ~rightmost key (ptr_at t r node i) (lvl + 1)
  end

let seek_into tx t c key =
  let r = tx_reader tx in
  let leaf = descend r t c ~rightmost:false key (root_of r t) 0 in
  let n = nkeys r leaf in
  let i = lower_bound r leaf n key in
  c.key <- key;
  c.leaf <- leaf;
  c.n <- n;
  c.i <- i;
  c.found <- (if i < n && key_at r leaf i = key then ptr_at t r leaf i else Heap.null)

let seek tx t key =
  let c = cursor () in
  seek_into tx t c key;
  c

let found c = c.found

(* The intents a split-free insert or merge-free delete writes: the leaf
   alone. Declaring it before the first write is what lets one barrier
   cover the update. The descriptor changes only when the root does, and
   the split or collapse that changes it declares it then. *)
let declare_insert tx c = Engine.add tx c.leaf

let declare_delete tx c = if c.found <> Heap.null then Engine.add tx c.leaf

(* Insert separator [sep] with right child [right] into the parent at
   level [lvl] of [c]'s path; at level -1 the root itself split. *)
let rec insert_upward tx t c lvl sep right =
  let r = tx_reader tx in
  match lvl with
  | -1 ->
      (* The root split: grow the tree with a new internal root. *)
      let old_root = root_of r t in
      let new_root = alloc_node tx ~node_cap:(node_cap t) ~leaf:false in
      set_key tx new_root 0 sep;
      set_ptr tx t new_root 0 old_root;
      set_ptr tx t new_root 1 right;
      set_nkeys tx new_root 1;
      Engine.add tx t.desc;
      Engine.write_int tx t.desc d_root new_root
  | _ ->
      let parent = path_node c lvl and i = path_index c lvl in
      Engine.add tx parent;
      let n = nkeys r parent in
      if n < t.mk then begin
        (* Room: shift and place sep/right at position i / i+1. *)
        open_gap tx t parent n ~j:i ~pj:(i + 1);
        set_key tx parent i sep;
        set_ptr tx t parent (i + 1) right;
        set_nkeys tx parent (n + 1)
      end
      else begin
        (* Split the full internal node around its median, then place the
           pending (sep, right) into the correct half. *)
        let mid = n / 2 in
        let promoted = key_at r parent mid in
        let rnode = alloc_node tx ~node_cap:(node_cap t) ~leaf:false in
        let rcnt = n - mid - 1 in
        move_span tx t ~src:parent ~dst:rnode ~from:(mid + 1) ~cnt:rcnt ~pfrom:(mid + 1)
          ~pcnt:(rcnt + 1) ~dj:0 ~pdj:0;
        set_nkeys tx rnode rcnt;
        set_nkeys tx parent mid;
        let target, ti, tn =
          if i <= mid then (parent, i, mid) else (rnode, i - mid - 1, rcnt)
        in
        open_gap tx t target tn ~j:ti ~pj:(ti + 1);
        set_key tx target ti sep;
        set_ptr tx t target (ti + 1) right;
        set_nkeys tx target (tn + 1);
        insert_upward tx t c (lvl - 1) promoted rnode
      end

let insert_at tx t ({ key; leaf; n; i; found; _ } as c) value =
  match found with
  | old when old <> Heap.null ->
      (* Replace in place. *)
      set_ptr tx t leaf i value;
      Some old
  | _ when n < t.mk ->
      open_gap tx t leaf n ~j:i ~pj:i;
      set_key tx leaf i key;
      set_ptr tx t leaf i value;
      set_nkeys tx leaf (n + 1);
      None
  | _ ->
      (* Split the full leaf, then insert into the proper half. *)
      let r = tx_reader tx in
      let keep = n - (n / 2) in
      let rcnt = n / 2 in
      let rleaf = alloc_node tx ~node_cap:(node_cap t) ~leaf:true in
      move_span tx t ~src:leaf ~dst:rleaf ~from:keep ~cnt:rcnt ~pfrom:keep ~pcnt:rcnt ~dj:0
        ~pdj:0;
      set_nkeys tx rleaf rcnt;
      Engine.write_int tx rleaf n_next (next_leaf r leaf);
      set_nkeys tx leaf keep;
      Engine.write_int tx leaf n_next rleaf;
      let sep = key_at r rleaf 0 in
      let target, ti, tn = if key < sep then (leaf, i, keep) else (rleaf, i - keep, rcnt) in
      open_gap tx t target tn ~j:ti ~pj:ti;
      set_key tx target ti key;
      set_ptr tx t target ti value;
      set_nkeys tx target (tn + 1);
      insert_upward tx t c (c.depth - 1) sep rleaf;
      None

let insert tx t key value =
  let c = seek tx t key in
  declare_insert tx c;
  insert_at tx t c value

(* --- Deletion ------------------------------------------------------------ *)

let min_keys t = (t.mk / 2) - 1

(* Rebalance [node] (which just lost a key) using its parent, level [lvl]
   of [c]'s path; at level -1 [node] is the root. *)
let rec rebalance tx t c node lvl =
  let r = tx_reader tx in
  let n = nkeys r node in
  match lvl with
  | -1 ->
      (* Root: collapse when an internal root runs out of keys. *)
      if (not (is_leaf r node)) && n = 0 then begin
        let only_child = ptr_at t r node 0 in
        Engine.add tx t.desc;
        Engine.write_int tx t.desc d_root only_child;
        Engine.free tx node
      end
  | _ ->
      if n >= min_keys t then ()
      else begin
        let parent = path_node c lvl and i = path_index c lvl in
        Engine.add tx parent;
        let pn = nkeys r parent in
        let leaf = is_leaf r node in
        let left_sibling = if i > 0 then Some (ptr_at t r parent (i - 1)) else None in
        let right_sibling = if i < pn then Some (ptr_at t r parent (i + 1)) else None in
        let can_lend s = nkeys r s > min_keys t in
        match (left_sibling, right_sibling) with
        | Some l, _ when can_lend l ->
            (* Borrow the left sibling's last entry. *)
            Engine.add tx l;
            Engine.add tx node;
            let ln = nkeys r l in
            if leaf then begin
              open_gap tx t node n ~j:0 ~pj:0;
              set_key tx node 0 (key_at r l (ln - 1));
              set_ptr tx t node 0 (ptr_at t r l (ln - 1));
              set_nkeys tx node (n + 1);
              set_nkeys tx l (ln - 1);
              set_key tx parent (i - 1) (key_at r node 0)
            end
            else begin
              open_gap tx t node n ~j:0 ~pj:0;
              set_key tx node 0 (key_at r parent (i - 1));
              set_ptr tx t node 0 (ptr_at t r l ln);
              set_nkeys tx node (n + 1);
              set_key tx parent (i - 1) (key_at r l (ln - 1));
              set_nkeys tx l (ln - 1)
            end
        | _, Some s when can_lend s ->
            (* Borrow the right sibling's first entry. *)
            Engine.add tx s;
            Engine.add tx node;
            let sn = nkeys r s in
            if leaf then begin
              set_key tx node n (key_at r s 0);
              set_ptr tx t node n (ptr_at t r s 0);
              set_nkeys tx node (n + 1);
              close_gap tx t s sn ~j:0 ~pj:0;
              set_nkeys tx s (sn - 1);
              set_key tx parent i (key_at r s 0)
            end
            else begin
              set_key tx node n (key_at r parent i);
              set_ptr tx t node (n + 1) (ptr_at t r s 0);
              set_nkeys tx node (n + 1);
              set_key tx parent i (key_at r s 0);
              close_gap tx t s sn ~j:0 ~pj:0;
              set_nkeys tx s (sn - 1)
            end
        | Some l, _ ->
            (* Merge [node] into its left sibling, dropping parent key i-1. *)
            Engine.add tx l;
            let ln = nkeys r l in
            if leaf then begin
              move_span tx t ~src:node ~dst:l ~from:0 ~cnt:n ~pfrom:0 ~pcnt:n ~dj:ln ~pdj:ln;
              set_nkeys tx l (ln + n);
              Engine.write_int tx l n_next (next_leaf r node)
            end
            else begin
              set_key tx l ln (key_at r parent (i - 1));
              move_span tx t ~src:node ~dst:l ~from:0 ~cnt:n ~pfrom:0 ~pcnt:(n + 1)
                ~dj:(ln + 1) ~pdj:(ln + 1);
              set_nkeys tx l (ln + 1 + n)
            end;
            Engine.free tx node;
            close_gap tx t parent pn ~j:(i - 1) ~pj:i;
            set_nkeys tx parent (pn - 1);
            rebalance tx t c parent (lvl - 1)
        | None, Some s ->
            (* Merge the right sibling into [node], dropping parent key i. *)
            Engine.add tx s;
            Engine.add tx node;
            let sn = nkeys r s in
            if leaf then begin
              move_span tx t ~src:s ~dst:node ~from:0 ~cnt:sn ~pfrom:0 ~pcnt:sn ~dj:n ~pdj:n;
              set_nkeys tx node (n + sn);
              Engine.write_int tx node n_next (next_leaf r s)
            end
            else begin
              set_key tx node n (key_at r parent i);
              move_span tx t ~src:s ~dst:node ~from:0 ~cnt:sn ~pfrom:0 ~pcnt:(sn + 1)
                ~dj:(n + 1) ~pdj:(n + 1);
              set_nkeys tx node (n + 1 + sn)
            end;
            Engine.free tx s;
            close_gap tx t parent pn ~j:i ~pj:(i + 1);
            set_nkeys tx parent (pn - 1);
            rebalance tx t c parent (lvl - 1)
        | None, None ->
            (* A non-root node always has a sibling. *)
            assert false
      end

let delete_at tx t ({ leaf; n; i; found; _ } as c) =
  if found = Heap.null then None
  else begin
    close_gap tx t leaf n ~j:i ~pj:i;
    set_nkeys tx leaf (n - 1);
    rebalance tx t c leaf (c.depth - 1);
    Some found
  end

let delete tx t key =
  let c = seek tx t key in
  declare_delete tx c;
  delete_at tx t c

(* The frees [destroy_empty] makes, declared ahead of it. *)
let declare_destroy_empty tx t =
  Engine.declare_free tx (root_of (tx_reader tx) t);
  Engine.declare_free tx t.desc

(* --- Bulk load ----------------------------------------------------------

   Sorted batches append at the rightmost spine: one leaf is materialized
   per chunk and stitched in with a single separator insertion, so loading
   n records costs O(n) node writes instead of the O(n log n) full-descent
   cost of repeated [insert] — the difference between seconds and minutes
   at a million records. *)

(* Sizes of the successive leaves a [total]-entry append materializes.
   Full leaves are peeled off while enough remains; a tail that would
   leave an underfull (< min_keys) non-root leaf is balanced into two
   near-halves instead, each >= min_keys. Pure plan, no engine work. *)
let leaf_plan t total =
  let mk = t.mk and mn = min_keys t in
  let rec go rem acc =
    if rem = 0 then List.rev acc
    else if rem > mk + mn then go (rem - mk) (mk :: acc)
    else if rem <= mk then List.rev (rem :: acc)
    else begin
      let a = (rem + 1) / 2 in
      List.rev ((rem - a) :: a :: acc)
    end
  in
  go total []

let append_sorted tx t entries =
  let m = Array.length entries in
  if m > 0 then begin
    let r = tx_reader tx in
    for i = 1 to m - 1 do
      if fst entries.(i) <= fst entries.(i - 1) then
        invalid_arg "Btree.append_sorted: keys not strictly increasing"
    done;
    (* One cursor carries every spine path this append records. *)
    let c = cursor () in
    let leaf = descend r t c ~rightmost:false (fst entries.(0)) (root_of r t) 0 in
    let n = nkeys r leaf in
    if n > 0 && fst entries.(0) <= key_at r leaf (n - 1) then
      invalid_arg "Btree.append_sorted: keys must exceed the current maximum";
    if next_leaf r leaf <> Heap.null then
      invalid_arg "Btree.append_sorted: keys must exceed the current maximum";
    let fill dst at ~from ~cnt =
      for j = 0 to cnt - 1 do
        let key, value = entries.(from + j) in
        set_key tx dst (at + j) key;
        set_ptr tx t dst (at + j) value
      done
    in
    if n + m <= t.mk then begin
      (* The whole batch fits in the rightmost leaf. *)
      Engine.add tx leaf;
      fill leaf n ~from:0 ~cnt:m;
      set_nkeys tx leaf (n + m)
    end
    else begin
      (* Top the rightmost leaf up to capacity, then hang whole new leaves
         off the rightmost spine. A remainder too small to stand as a leaf
         of its own falls back to point inserts (bounded by min_keys). *)
      let room = t.mk - n in
      if room > 0 then begin
        Engine.add tx leaf;
        fill leaf n ~from:0 ~cnt:room;
        set_nkeys tx leaf t.mk
      end;
      let rem = m - room in
      if rem <= min_keys t then begin
        (* The tail cannot stand as a leaf of its own: split the (now
           full) rightmost leaf instead, moving its upper half plus the
           tail into a fresh sibling. Both halves end >= min_keys, and
           the work touches O(depth) objects — never one tx intent per
           tail key. *)
        let prev = descend r t c ~rightmost:true 0 (root_of r t) 0 in
        let total = t.mk + rem in
        let keep = total / 2 in
        let moved = t.mk - keep in
        let nleaf = alloc_node tx ~node_cap:(node_cap t) ~leaf:true in
        Engine.add tx prev;
        move_span tx t ~src:prev ~dst:nleaf ~from:keep ~cnt:moved ~pfrom:keep ~pcnt:moved
          ~dj:0 ~pdj:0;
        fill nleaf moved ~from:room ~cnt:rem;
        set_nkeys tx nleaf (total - keep);
        set_nkeys tx prev keep;
        Engine.write_int tx prev n_next nleaf;
        let sep = key_at r nleaf 0 in
        insert_upward tx t c (c.depth - 1) sep nleaf
      end
      else begin
        let from = ref room in
        List.iter
          (fun cnt ->
            let prev = descend r t c ~rightmost:true 0 (root_of r t) 0 in
            let nleaf = alloc_node tx ~node_cap:(node_cap t) ~leaf:true in
            fill nleaf 0 ~from:!from ~cnt;
            set_nkeys tx nleaf cnt;
            Engine.add tx prev;
            Engine.write_int tx prev n_next nleaf;
            insert_upward tx t c (c.depth - 1) (fst entries.(!from)) nleaf;
            from := !from + cnt)
          (leaf_plan t rem)
      end
    end
  end

(* --- Iteration ----------------------------------------------------------- *)

let leftmost_leaf r t =
  let rec go node = if is_leaf r node then node else go (ptr_at t r node 0) in
  go (root_of r t)

(* The leaf holding the first key >= [key], without recording the path:
   the descent of the committed-state walks below. *)
let rec leaf_for r t key node =
  if is_leaf r node then node
  else leaf_for r t key (ptr_at t r node (child_index r node (nkeys r node) key))

(* Number of keys: a walk of the leaf chain through the cost-free probe
   reader, O(leaves). The count is derived state and is not persisted. *)
let cardinal t =
  let r = probe_reader t.engine in
  let rec sum leaf acc =
    if leaf = Heap.null then acc else sum (next_leaf r leaf) (acc + nkeys r leaf)
  in
  sum (leftmost_leaf r t) 0

let iter t f =
  let r = peek_reader t.engine in
  let rec walk leaf =
    if leaf <> Heap.null then begin
      let n = nkeys r leaf in
      for i = 0 to n - 1 do
        f (key_at r leaf i) (ptr_at t r leaf i)
      done;
      walk (next_leaf r leaf)
    end
  in
  walk (leftmost_leaf r t)

(* Shared range walk: descend once to the leaf holding the first key
   >= [lo], then follow the leaf chain until a key exceeds [hi]. The
   reader parameterizes committed-state vs in-transaction traversal. *)
let fold_range_with r t ~lo ~hi ~init ~f =
  let rec walk leaf acc =
    if leaf = Heap.null then acc
    else begin
      let n = nkeys r leaf in
      let rec scan i acc =
        if i >= n then (false, acc)
        else begin
          let k = key_at r leaf i in
          if k > hi then (true, acc)
          else if k >= lo then scan (i + 1) (f acc k (ptr_at t r leaf i))
          else scan (i + 1) acc
        end
      in
      let stop, acc = scan 0 acc in
      if stop then acc else walk (next_leaf r leaf) acc
    end
  in
  if lo > hi then init else walk (leaf_for r t lo (root_of r t)) init

let fold_range t ~lo ~hi ~init ~f =
  fold_range_with (peek_reader t.engine) t ~lo ~hi ~init ~f

let fold_range_tx tx t ~lo ~hi ~init ~f =
  fold_range_with (tx_reader tx) t ~lo ~hi ~init ~f

let range t ~lo ~hi f =
  fold_range t ~lo ~hi ~init:() ~f:(fun () k v -> f k v)

(* Count-bounded scan (YCSB-E): descend once to the first key >= [lo],
   then walk the leaf chain, stopping as soon as [count] bindings have
   been visited — the charged cost is O(depth + count), independent of
   how many records lie beyond the window. Returns the visited count.

   A leaf's visited keys [start, start + m) are one charged load of
   [8m] bytes and its pointers another, the rule [read_span] follows for
   the bulk edits: the bytes are those of [m] word loads, the per-access
   overhead is paid twice per leaf instead of twice per key. The words
   themselves are then read through the probe path, so the walk allocates
   nothing per leaf. [start] is non-zero only in the first leaf; later
   leaves hold only keys >= lo, so re-running the binary search would
   waste charged reads. Returns how many of [remaining] were not
   visited. *)
let rec scan_leaves t f leaf start remaining =
  if leaf = Heap.null then remaining
  else begin
    let e = t.engine in
    let m = min (Engine.peek_int e leaf n_nkeys - start) remaining in
    if m > 0 then begin
      let keys = keys_base + (8 * start) and ptrs = ptrs_base t.mk + (8 * start) in
      Engine.peek_run e leaf keys (8 * m);
      Engine.peek_run e leaf ptrs (8 * m);
      for j = 0 to m - 1 do
        f
          (Engine.probe_int e leaf (keys + (8 * j)))
          (Engine.probe_int e leaf (ptrs + (8 * j)))
      done
    end;
    let remaining = remaining - m in
    if remaining = 0 then 0 else scan_leaves t f (Engine.peek_int e leaf n_next) 0 remaining
  end

let scan t ~lo ~count f =
  if count <= 0 then 0
  else begin
    let r = peek_reader t.engine in
    let first = leaf_for r t lo (root_of r t) in
    count - scan_leaves t f first (lower_bound r first (nkeys r first) lo) count
  end

let iter_nodes t f =
  let r = peek_reader t.engine in
  f t.desc;
  let rec go node =
    f node;
    if not (is_leaf r node) then
      for i = 0 to nkeys r node do
        go (ptr_at t r node i)
      done
  in
  go (root_of r t)

let destroy_empty tx t =
  let r = tx_reader tx in
  let root = root_of r t in
  if (not (is_leaf r root)) || nkeys r root <> 0 then
    invalid_arg "Btree.destroy_empty: tree is not empty";
  Engine.free tx root;
  Engine.free tx t.desc

let min_key t =
  let r = peek_reader t.engine in
  let leaf = leftmost_leaf r t in
  if nkeys r leaf = 0 then None else Some (key_at r leaf 0)

let max_key t =
  let r = peek_reader t.engine in
  let rec go node =
    let n = nkeys r node in
    if is_leaf r node then if n = 0 then None else Some (key_at r node (n - 1))
    else go (ptr_at t r node n)
  in
  go (root_of r t)

let height t =
  let r = peek_reader t.engine in
  let rec go node acc = if is_leaf r node then acc else go (ptr_at t r node 0) (acc + 1) in
  go (root_of r t) 1

(* --- Cost-free introspection ---------------------------------------------

   Gauge feeders: these walk committed state through the probe reader, so
   sampling them charges nothing — metrics registries can read them
   between transactions without perturbing the deterministic clock or the
   bit-identity oracles. *)

let depth t =
  let r = probe_reader t.engine in
  let rec go node acc = if is_leaf r node then acc else go (ptr_at t r node 0) (acc + 1) in
  go (root_of r t) 1

type stats = {
  depth : int;
  internal_nodes : int;
  leaf_nodes : int;
  keys : int;
  occupancy : float;
}

let stats t =
  let r = probe_reader t.engine in
  let internal = ref 0 and leaves = ref 0 and keys = ref 0 in
  let rec go node =
    if is_leaf r node then begin
      incr leaves;
      keys := !keys + nkeys r node
    end
    else begin
      incr internal;
      for i = 0 to nkeys r node do
        go (ptr_at t r node i)
      done
    end
  in
  go (root_of r t);
  {
    depth = depth t;
    internal_nodes = !internal;
    leaf_nodes = !leaves;
    keys = !keys;
    occupancy =
      (if !leaves = 0 then 0.0 else float_of_int !keys /. float_of_int (!leaves * t.mk));
  }

(* --- Validation ---------------------------------------------------------- *)

let validate t =
  let r = peek_reader t.engine in
  let heap = Engine.heap t.engine in
  let error = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !error = None then error := Some s) fmt in
  let leaves = ref [] in
  let root = root_of r t in
  (* Returns the depth of the subtree; checks ordering within (lo, hi]. *)
  let rec check node ~lo ~hi ~is_root =
    if not (Heap.is_allocated heap node) then begin
      fail "node %d is not an allocated object" node;
      0
    end
    else begin
      let n = nkeys r node in
      if n > t.mk then fail "node %d overflows: %d > %d" node n t.mk;
      if (not is_root) && n < min_keys t then
        fail "node %d underflows: %d < %d" node n (min_keys t);
      (* Separators are copied up from leaf first keys, so a child's keys
         satisfy [lo <= k < hi]. *)
      for i = 0 to n - 1 do
        let k = key_at r node i in
        (match lo with Some l when k < l -> fail "node %d key %d < lower bound" node k | _ -> ());
        (match hi with Some h when k >= h -> fail "node %d key %d >= upper bound" node k | _ -> ());
        if i > 0 && key_at r node (i - 1) >= k then fail "node %d keys out of order" node
      done;
      if is_leaf r node then begin
        leaves := node :: !leaves;
        1
      end
      else begin
        if n = 0 && not is_root then fail "internal node %d is empty" node;
        let depth = ref 0 in
        for i = 0 to n do
          let clo = if i = 0 then lo else Some (key_at r node (i - 1)) in
          let chi = if i = n then hi else Some (key_at r node i) in
          let d = check (ptr_at t r node i) ~lo:clo ~hi:chi ~is_root:false in
          if i = 0 then depth := d
          else if d <> !depth then fail "node %d has uneven child depths" node
        done;
        !depth + 1
      end
    end
  in
  ignore (check root ~lo:None ~hi:None ~is_root:true);
  (* The leaf chain must visit exactly the tree walk's leaves, in key
     order, and end after the last. The walk is bounded by the tree's
     leaves, so a cyclic chain cannot hang it. *)
  let rec follow leaf = function
    | [] ->
        if leaf <> Heap.null then fail "leaf chain continues past the last leaf to %d" leaf
    | expected :: rest ->
        if leaf <> expected then
          fail "leaf chain reaches %d where the tree walk has leaf %d" leaf expected
        else follow (next_leaf r leaf) rest
  in
  if !error = None then follow (leftmost_leaf r t) (List.rev !leaves);
  match !error with None -> Ok () | Some e -> Error e
