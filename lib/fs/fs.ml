module Engine = Kamino_core.Engine
module Heap = Kamino_heap.Heap
module Region = Kamino_nvm.Region
module Btree = Kamino_index.Btree
module Obs = Kamino_obs.Obs
module Metrics = Kamino_obs.Metrics

exception Fs_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Fs_error s)) fmt

module Layout = struct
  (* Superblock: anchored at the heap root. *)
  let sb_magic = 0
  let sb_version = 8
  let sb_itab = 16
  let sb_ino_base = 24
  let sb_ino_stride = 32
  let sb_root_ino = 40
  let sb_block_count = 48
  let sb_block_size = 56
  let sb_hash_bits = 64
  let sb_size = 72
  let magic = 0x4b46_534d (* "KFSM" *)
  let version = 3

  (* Inode. *)
  let i_ino = 0
  let i_kind = 8
  let i_nlink = 16
  let i_size = 24
  let i_parent = 32
  let i_gen = 40
  let i_head = 48
  let i_blk0 = 56
  let inode_size = 64
  let kind_file = 1
  let kind_dir = 2

  (* Dirent: collision-chained under one hash key. *)
  let d_next = 0
  let d_ino = 8
  let d_nlen = 16
  let d_name = 24
  let max_name_len = 40
  let dirent_size = 64

  (* Extent-chain node: [ext_slots] data-block pointers. *)
  let e_next = 0
  let e_slot i = 8 + (i * 8)
  let ext_slots = 30
  let ext_size = 8 + (ext_slots * 8)

  (* Block addressing. A file's block pointers sit in a list of holders:
     holder 0 is the inode, whose one slot [i_blk0] holds block 0; holder
     [k >= 1] is extent-chain node [k - 1], whose slots hold blocks
     [1 + ((k - 1) * ext_slots) .. k * ext_slots]. Holder [k] links to
     holder [k + 1] through its word [link_off k]. A file of [nb] blocks
     owns [ext_nodes nb] chain nodes: the holder index of its last block,
     so none for [nb <= 1]. *)
  let blk_holder b = (b + ext_slots - 1) / ext_slots
  let blk_slot b = if b = 0 then i_blk0 else e_slot ((b - 1) mod ext_slots)
  let link_off k = if k = 0 then i_head else e_next
  let ext_nodes nb = (nb + ext_slots - 2) / ext_slots

  let itab_node_size = 512
  let dir_node_size = 256
end

open Layout

type t = {
  engine : Engine.t;
  sb : Heap.ptr;
  itab : Btree.t;
  block_size : int;
  hash_mask : int;
  base : int;
  stride : int;
  mutable next_ord : int;
      (* The inode-number cursor: DRAM only, set past the inode table's
         largest key at [attach]. *)
  obs_track : int;
  hists : Metrics.hist array;
  c_blocks : Metrics.counter;
  c_extnodes : Metrics.counter;
}

type kind = File | Dir

type stat = {
  ino : int;
  kind : kind;
  nlink : int;
  size : int;
  parent : int;
  gen : int;
}

(* --- Opcodes (obs span payloads, histogram names) ------------------------ *)

let op_create = 0
let op_mkdir = 1
let op_write = 2
let op_read = 3
let op_readdir = 4
let op_rename = 5
let op_unlink = 6
let op_truncate = 7
let op_link = 8
let op_rmdir = 9
let op_fsck = 10

let op_names =
  [|
    "create"; "mkdir"; "write"; "read"; "readdir"; "rename"; "unlink";
    "truncate"; "link"; "rmdir"; "fsck";
  |]

let op_name op = if op >= 0 && op < Array.length op_names then op_names.(op) else "?"

(* --- Names ---------------------------------------------------------------- *)

let check_name name =
  let n = String.length name in
  if n = 0 || n > max_name_len then
    err "Fs: name length %d out of range 1..%d" n max_name_len;
  if name = "." || name = ".." then err "Fs: %S is reserved" name;
  String.iter
    (fun c -> if c = '/' || c = '\000' then err "Fs: name %S has a '/' or NUL" name)
    name

(* Deterministic djb2-xs hash, kept in 62 nonnegative bits (the FNV
   basis does not fit OCaml's native int). *)
let name_hash_raw name =
  let h = ref 5381 in
  String.iter (fun c -> h := (((!h lsl 5) + !h) + Char.code c) land max_int) name;
  (!h lxor (!h lsr 31)) land max_int

let hash_name t name = name_hash_raw name land t.hash_mask

(* --- Lifecycle ------------------------------------------------------------ *)

let make_metric_handles engine =
  let reg = Engine.registry engine in
  ( Array.map (fun n -> Metrics.hist reg ("fs.op_ns." ^ n)) op_names,
    Metrics.counter reg "fs.blocks_allocated",
    Metrics.counter reg "fs.extent_nodes_allocated" )

let kind_code = function File -> kind_file | Dir -> kind_dir

(* --- Plan-then-apply ----------------------------------------------------------

   Every mutating operation runs in three phases: it looks everything up
   once, declares its whole write set (objects it edits, the B+Tree leaves
   it changes, the ranges it frees), then allocates through one
   [Engine.alloc_many] and writes in place. The engine
   barriers the intent log at the first write after a new declare, so an
   operation whose declares all precede its first write pays one barrier
   instead of one per object (DESIGN.md §18). Only B+Tree splits and
   merges, which find their nodes as they go, declare mid-operation. The
   mutation order, and therefore the heap image, is the one the operation
   always had.

   Making an inode is split in two halves so composite operations can fold
   its allocation into their own: [plan_mknod] takes the next ordinal and
   declares the inode-table leaf; [apply_mknod] takes its objects
   ([mknod_sizes]) from the front of an allocation and returns the rest. *)
type mknod_plan = { m_ino : int; m_at : Btree.cursor }

let mknod_sizes =
  let file = [ inode_size ] in
  let dir = inode_size :: Btree.create_sizes ~node_size:dir_node_size in
  function File -> file | Dir -> dir

(* ... followed by the dirent naming the new inode. *)
let named_sizes =
  let file = mknod_sizes File @ [ dirent_size ] in
  let dir = mknod_sizes Dir @ [ dirent_size ] in
  function File -> file | Dir -> dir

(* The ordinal past the inode table's largest committed key. *)
let ord_after_itab ~base ~stride itab =
  match Btree.max_key itab with None -> 0 | Some ino -> max 0 (((ino - base) / stride) + 1)

(* Only this advances [t.next_ord], so an ordinal taken by a transaction
   that aborts is skipped. The seek's leaf tells whether the ino is
   bound: a live binding means another handle on this engine created it,
   so the cursor jumps past the committed maximum and seeks again. *)
let rec plan_mknod tx t =
  let m_ino = t.base + (t.next_ord * t.stride) in
  t.next_ord <- t.next_ord + 1;
  let m_at = Btree.seek tx t.itab m_ino in
  if Btree.found m_at <> Heap.null then begin
    t.next_ord <- max t.next_ord (ord_after_itab ~base:t.base ~stride:t.stride t.itab);
    plan_mknod tx t
  end
  else begin
    Btree.declare_insert tx m_at;
    { m_ino; m_at }
  end

let apply_mknod tx t kind ~parent { m_ino; m_at } objs =
  let ip = List.hd objs in
  Engine.write_int tx ip i_ino m_ino;
  Engine.write_int tx ip i_kind (kind_code kind);
  Engine.write_int tx ip i_nlink 1;
  Engine.write_int tx ip i_size 0;
  Engine.write_int tx ip i_gen 0;
  let rest =
    match (kind, List.tl objs) with
    | File, rest ->
        (* [i_blk0] is left as allocated: a fresh object is zeroed, and
           null is 0. *)
        Engine.write_int tx ip i_parent (-1);
        Engine.write_int tx ip i_head Heap.null;
        rest
    | Dir, desc :: root :: rest ->
        Engine.write_int tx ip i_parent parent;
        let idx = Btree.create_in tx ~desc ~root in
        Engine.write_int tx ip i_head (Btree.descriptor idx);
        rest
    | Dir, _ -> assert false
  in
  ignore (Btree.insert_at tx t.itab m_at ip);
  rest

(* [format] creates the root directory through this inside the
   formatting transaction. *)
let mknod_tx tx t kind ~parent =
  let m = plan_mknod tx t in
  ignore (apply_mknod tx t kind ~parent m (Engine.alloc_many tx (mknod_sizes kind)));
  m.m_ino

(* The geometry [format] accepts and [attach] trusts: [fail off msg] on
   the first word out of range, [off] its superblock offset. *)
let check_geometry fail ~block_size ~hash_bits ~ino_base ~ino_stride =
  if block_size < 8 || block_size mod 8 <> 0 || block_size > Heap.max_object_size then
    fail sb_block_size
      (Printf.sprintf "block_size %d is not a multiple of 8 in 8..%d" block_size
         Heap.max_object_size);
  if hash_bits < 1 || hash_bits > 61 then
    fail sb_hash_bits (Printf.sprintf "hash_bits %d is outside 1..61" hash_bits);
  if ino_base < 0 || ino_base >= ino_stride then
    fail
      (if ino_stride < 1 then sb_ino_stride else sb_ino_base)
      (Printf.sprintf "ino_base %d and ino_stride %d break 0 <= ino_base < ino_stride"
         ino_base ino_stride)

let format ?(block_size = 512) ?(dir_hash_bits = 40) ?(ino_base = 0)
    ?(ino_stride = 1) ?(with_root = true) ?(obs_track = 4) engine =
  check_geometry
    (fun _ m -> invalid_arg ("Fs.format: " ^ m))
    ~block_size ~hash_bits:dir_hash_bits ~ino_base ~ino_stride;
  if Engine.root engine <> Heap.null then
    err "Fs.format: heap already has a root";
  let hists, c_blocks, c_extnodes = make_metric_handles engine in
  let t =
    Engine.with_tx engine (fun tx ->
        let itab = Btree.create tx ~node_size:itab_node_size in
        let sb = Engine.alloc tx sb_size in
        Engine.write_int tx sb sb_magic magic;
        Engine.write_int tx sb sb_version version;
        Engine.write_int tx sb sb_itab (Btree.descriptor itab);
        Engine.write_int tx sb sb_ino_base ino_base;
        Engine.write_int tx sb sb_ino_stride ino_stride;
        Engine.write_int tx sb sb_root_ino (-1);
        Engine.write_int tx sb sb_block_count 0;
        Engine.write_int tx sb sb_block_size block_size;
        Engine.write_int tx sb sb_hash_bits dir_hash_bits;
        Engine.set_root tx sb;
        let t =
          {
            engine;
            sb;
            itab;
            block_size;
            hash_mask = (1 lsl dir_hash_bits) - 1;
            base = ino_base;
            stride = ino_stride;
            next_ord = 0;
            obs_track;
            hists;
            c_blocks;
            c_extnodes;
          }
        in
        if with_root then begin
          (* First ordinal, so the root's ino is the base — its own
             parent, link count 1 for the superblock reference. *)
          let rino = mknod_tx tx t Dir ~parent:ino_base in
          Engine.write_int tx sb sb_root_ino rino
        end;
        t)
  in
  let obs = Engine.obs engine in
  if Obs.enabled obs then Obs.name_track obs obs_track "fs.ops";
  t

(* Every header word is checked before any is trusted. A version-1 image
   kept block 0 in the extent chain, so its files would read as empty; a
   version-2 image kept counters this layout drops. *)
let attach ?(obs_track = 4) engine =
  let sb = Engine.root engine in
  if sb = Heap.null then err "Fs.attach: heap has no root";
  let word off = Engine.peek_int engine sb off in
  let corrupt off m = Region.corrupt ~structure:"Fs superblock" ~off "%s" m in
  if word sb_magic <> magic then corrupt sb_magic "root object is not a superblock";
  if word sb_version <> version then
    corrupt sb_version (Printf.sprintf "version %d, not %d" (word sb_version) version);
  let block_size = word sb_block_size and hash_bits = word sb_hash_bits in
  let base = word sb_ino_base and stride = word sb_ino_stride in
  check_geometry corrupt ~block_size ~hash_bits ~ino_base:base ~ino_stride:stride;
  let itab = word sb_itab in
  if not (Heap.is_allocated (Engine.heap engine) itab) then
    corrupt sb_itab (Printf.sprintf "itab %d is not an allocated object" itab);
  let hists, c_blocks, c_extnodes = make_metric_handles engine in
  let itab = Btree.attach engine itab in
  let t =
    {
      engine;
      sb;
      itab;
      block_size;
      hash_mask = (1 lsl hash_bits) - 1;
      base;
      stride;
      next_ord = ord_after_itab ~base ~stride itab;
      obs_track;
      hists;
      c_blocks;
      c_extnodes;
    }
  in
  let obs = Engine.obs engine in
  if Obs.enabled obs then Obs.name_track obs obs_track "fs.ops";
  t

let engine t = t.engine
let block_size t = t.block_size
let superblock t = t.sb
let itab t = t.itab
let ino_base t = t.base
let ino_stride t = t.stride
let has_root t = Engine.peek_int t.engine t.sb sb_root_ino >= 0

let root_ino t =
  let r = Engine.peek_int t.engine t.sb sb_root_ino in
  if r < 0 then err "Fs.root_ino: filesystem has no root directory";
  r

(* --- Inode access --------------------------------------------------------- *)

let inode_ptr t ino = Btree.find t.itab ino

let inode_ptr_tx tx t ino =
  match Btree.find_tx tx t.itab ino with
  | Some p -> p
  | None -> err "Fs: no inode %d" ino

(* An inode and its inode-table position, for operations that retire it. *)
let inode_at tx t ino =
  let at = Btree.seek tx t.itab ino in
  let ip = Btree.found at in
  if ip = Heap.null then err "Fs: no inode %d" ino;
  (at, ip)

let kind_of_code k = if k = kind_dir then Dir else File

let kind_tx tx t ino = kind_of_code (Engine.read_int tx (inode_ptr_tx tx t ino) i_kind)

let committed_inode t ino =
  match inode_ptr t ino with None -> err "Fs: no inode %d" ino | Some ip -> ip

let kind_of t ino = kind_of_code (Engine.peek_int t.engine (committed_inode t ino) i_kind)
let parent_of t ino = Engine.peek_int t.engine (committed_inode t ino) i_parent

(* A directory inode's index. *)
let dir_index t ip = Btree.attach t.engine (Engine.peek_int t.engine ip i_head)

let dir_index_tx tx t ip = Btree.attach t.engine (Engine.read_int tx ip i_head)

(* A directory's entry count is not stored: it is the length of every
   collision chain in its index. *)
let rec chain_length rd p n = if p = Heap.null then n else chain_length rd (rd p d_next) (n + 1)

let stat t ino =
  let e = t.engine and ip = committed_inode t ino in
  let kind = kind_of_code (Engine.peek_int e ip i_kind) in
  let size =
    match kind with
    | File -> Engine.peek_int e ip i_size
    | Dir ->
        Btree.fold_range (dir_index t ip) ~lo:0 ~hi:max_int ~init:0
          ~f:(fun n _ head -> chain_length (Engine.peek_int e) head n)
  in
  {
    ino;
    kind;
    nlink = Engine.peek_int e ip i_nlink;
    size;
    parent = Engine.peek_int e ip i_parent;
    gen = Engine.peek_int e ip i_gen;
  }

let dir_of_tx tx t dir =
  let ip = inode_ptr_tx tx t dir in
  if Engine.read_int tx ip i_kind <> kind_dir then
    err "Fs: ino %d is not a directory" dir;
  dir_index_tx tx t ip

let dir_empty_tx tx t ~ino = Btree.is_empty_tx tx (dir_of_tx tx t ino)

(* --- Dirent chains -------------------------------------------------------- *)

(* Where [name] sits in directory [dir], from one inode-table descent for
   the directory, one index descent for the name's hash key and one walk
   of its collision chain: [de] is the matching dirent ([Heap.null] if
   none), [prev] its predecessor ([Heap.null] at the chain head). *)
type slot = { idx : Btree.t; at : Btree.cursor; prev : Heap.ptr; de : Heap.ptr }

let rec chain_slot tx name idx at prev p =
  if p = Heap.null then { idx; at; prev = Heap.null; de = Heap.null }
  else if Engine.read_prefixed tx p d_nlen ~max:max_name_len = name then { idx; at; prev; de = p }
  else chain_slot tx name idx at p (Engine.read_int tx p d_next)

let find_slot tx t ~dir ~name =
  let idx = dir_of_tx tx t dir in
  let at = Btree.seek tx idx (hash_name t name) in
  chain_slot tx name idx at Heap.null (Btree.found at)

let dirent_lookup_tx tx t ~dir ~name =
  let s = find_slot tx t ~dir ~name in
  if s.de = Heap.null then None else Some (Engine.read_int tx s.de d_ino)

(* Adding a dirent pushes it at the head of its collision chain: only the
   index leaf changes. The directory's inode is not written. *)
let declare_dirent_add tx s = Btree.declare_insert tx s.at

let apply_dirent_add tx s ~de ~name ~ino =
  Engine.write_int tx de d_next (Btree.found s.at);
  Engine.write_int tx de d_ino ino;
  Engine.write_int tx de d_nlen (String.length name);
  Engine.write_string tx de d_name name;
  ignore (Btree.insert_at tx s.idx s.at de)

let dirent_add_tx tx t ~dir ~name ~ino =
  check_name name;
  let s = find_slot tx t ~dir ~name in
  declare_dirent_add tx s;
  apply_dirent_add tx s ~de:(Engine.alloc tx dirent_size) ~name ~ino

(* Removing [s.de] relinks its chain — the predecessor's next pointer, or
   the index binding (replaced by the successor, or deleted) — and frees
   it. Returns the successor, read here once. *)
let declare_dirent_remove tx s =
  let nxt = Engine.read_int tx s.de d_next in
  if s.prev <> Heap.null then Engine.add_field tx s.prev d_next 8
  else if nxt = Heap.null then Btree.declare_delete tx s.at
  else Btree.declare_insert tx s.at;
  Engine.declare_free tx s.de;
  nxt

let apply_dirent_remove tx s ~nxt =
  if s.prev <> Heap.null then Engine.write_int tx s.prev d_next nxt
  else if nxt = Heap.null then ignore (Btree.delete_at tx s.idx s.at)
  else ignore (Btree.insert_at tx s.idx s.at nxt);
  Engine.free tx s.de

let dirent_remove_tx tx t ~dir ~name =
  check_name name;
  let s = find_slot tx t ~dir ~name in
  if s.de = Heap.null then err "Fs: %s: no such entry" name;
  let ino = Engine.read_int tx s.de d_ino in
  let nxt = declare_dirent_remove tx s in
  apply_dirent_remove tx s ~nxt;
  ino

(* --- File extents --------------------------------------------------------- *)

let blocks_for t size = (size + t.block_size - 1) / t.block_size

(* The superblock's exact block count, the one counter it keeps: an
   operation that changes a file's block count declares the superblock
   and moves it by [delta]. *)
let add_block_count tx t delta =
  Engine.write_int tx t.sb sb_block_count (Engine.read_int tx t.sb sb_block_count + delta)

(* A file's holders under {!Layout}'s block addressing: holder 0 is its
   inode [ip], holder [k >= 1] is [nodes.(k - 1)] of its extent chain. *)
let holder ip nodes k = if k = 0 then ip else nodes.(k - 1)

(* One walk of a file's block pointers: its first [nn] chain nodes
   ([i_head] is read only when [nn > 0]), and into [blks] the pointers of
   blocks [from_b .. to_b] ([blks.(b - from_b)]), which must lie in the
   inode or those nodes. *)
let walk_chain tx ip ~nn ~from_b ~to_b blks =
  let nodes = Array.make nn Heap.null in
  for k = 1 to nn do
    nodes.(k - 1) <- Engine.read_int tx (holder ip nodes (k - 1)) (link_off (k - 1))
  done;
  for b = from_b to to_b do
    blks.(b - from_b) <- Engine.read_int tx (holder ip nodes (blk_holder b)) (blk_slot b)
  done;
  nodes

(* Declare the pointer word at [off] in holder [k]. Every caller declared
   the inode, holder 0, whole, so its words need no field declare (which
   would still pay the object lookup's loads). *)
let declare_word tx nodes k off = if k > 0 then Engine.add_field tx nodes.(k - 1) off 8

(* Append zeroed blocks (and chain nodes) to go from [old_nb] to [new_nb]
   blocks. [nodes] reaches the holder of the file's last block, which the
   first new blocks (and the first new node's link) go into. One
   [alloc_many] declares and allocates every new node and block, in the
   order they are linked. Fresh blocks numbered [from_b ..] are stored
   into [blks] for the caller's data writes. *)
let grow tx t ip nodes ~old_nb ~new_nb ~from_b blks =
  if new_nb > old_nb then begin
    let h = ext_nodes old_nb in
    let b = ref old_nb in
    while !b < new_nb && blk_holder !b = h do
      declare_word tx nodes h (blk_slot !b);
      incr b
    done;
    if !b < new_nb then declare_word tx nodes h (link_off h);
    let sizes = ref [] in
    for b = new_nb - 1 downto old_nb do
      sizes := t.block_size :: !sizes;
      if blk_holder b > blk_holder (b - 1) then sizes := ext_size :: !sizes
    done;
    let fresh = Array.of_list (Engine.alloc_many tx !sizes) in
    let k = ref 0 and h = ref h and cur = ref (holder ip nodes h) in
    for b = old_nb to new_nb - 1 do
      if blk_holder b > !h then begin
        let n = fresh.(!k) in
        incr k;
        Engine.write_int tx !cur (link_off !h) n;
        Metrics.incr t.c_extnodes;
        incr h;
        cur := n
      end;
      let blk = fresh.(!k) in
      incr k;
      Engine.write_int tx !cur (blk_slot b) blk;
      Metrics.incr t.c_blocks;
      if b >= from_b && b - from_b < Array.length blks then blks.(b - from_b) <- blk
    done
  end

(* Shrink from [old_nb] blocks to [len] bytes: re-zero the kept tail, null
   freed slots in kept holders, free dropped blocks, cut the chain after
   the last kept holder and free the nodes past it. Everything is declared
   before the first write. *)
let shrink tx t ip ~len ~old_nb =
  let new_nb = blocks_for t len in
  let tail = len mod t.block_size in
  let zb = if tail <> 0 then new_nb - 1 else new_nb in
  let keep = ext_nodes new_nb and total = ext_nodes old_nb in
  let blks = Array.make (old_nb - zb) Heap.null in
  let nodes = walk_chain tx ip ~nn:total ~from_b:zb ~to_b:(old_nb - 1) blks in
  if tail <> 0 then Engine.add_field tx blks.(0) tail (t.block_size - tail);
  for b = new_nb to old_nb - 1 do
    if blk_holder b <= keep then declare_word tx nodes (blk_holder b) (blk_slot b);
    Engine.declare_free tx blks.(b - zb)
  done;
  if total > keep then begin
    declare_word tx nodes keep (link_off keep);
    for i = keep to total - 1 do
      Engine.declare_free tx nodes.(i)
    done
  end;
  if tail <> 0 then
    Engine.write_string tx blks.(0) tail (String.make (t.block_size - tail) '\000');
  for b = new_nb to old_nb - 1 do
    if blk_holder b <= keep then
      Engine.write_int tx (holder ip nodes (blk_holder b)) (blk_slot b) Heap.null;
    Engine.free tx blks.(b - zb)
  done;
  if total > keep then begin
    Engine.write_int tx (holder ip nodes keep) (link_off keep) Heap.null;
    for i = keep to total - 1 do
      Engine.free tx nodes.(i)
    done
  end

(* Dropping one link of a regular file; at the last link the file goes:
   every block, then every chain node, then the inode and its
   inode-table binding. [d_at]/[d_ip] come from [inode_at]. *)
type drop = {
  d_at : Btree.cursor;
  d_ip : Heap.ptr;
  d_nlink : int;
  d_nodes : Heap.ptr array;
  d_blks : Heap.ptr array;
}

let declare_drop_link tx t ~at ~ip =
  let nlink = Engine.read_int tx ip i_nlink in
  if nlink > 1 then begin
    Engine.add tx ip;
    { d_at = at; d_ip = ip; d_nlink = nlink; d_nodes = [||]; d_blks = [||] }
  end
  else begin
    let nb = blocks_for t (Engine.read_int tx ip i_size) in
    let blks = Array.make nb Heap.null in
    let nodes = walk_chain tx ip ~nn:(ext_nodes nb) ~from_b:0 ~to_b:(nb - 1) blks in
    Array.iter (Engine.declare_free tx) blks;
    Array.iter (Engine.declare_free tx) nodes;
    Engine.declare_free tx ip;
    Btree.declare_delete tx at;
    if nb > 0 then Engine.add tx t.sb;
    { d_at = at; d_ip = ip; d_nlink = nlink; d_nodes = nodes; d_blks = blks }
  end

let apply_drop_link tx t d =
  if d.d_nlink > 1 then Engine.write_int tx d.d_ip i_nlink (d.d_nlink - 1)
  else begin
    Array.iter (Engine.free tx) d.d_blks;
    Array.iter (Engine.free tx) d.d_nodes;
    Engine.free tx d.d_ip;
    ignore (Btree.delete_at tx t.itab d.d_at);
    let nb = Array.length d.d_blks in
    if nb > 0 then add_block_count tx t (-nb)
  end

(* --- Inode-side primitives ------------------------------------------------ *)

let link_target tx t ~ino =
  let ip = inode_ptr_tx tx t ino in
  if Engine.read_int tx ip i_kind <> kind_file then
    err "Fs.link: ino %d is not a regular file" ino;
  ip

let add_link_tx tx t ~ino =
  let ip = link_target tx t ~ino in
  Engine.add tx ip;
  Engine.write_int tx ip i_nlink (Engine.read_int tx ip i_nlink + 1)

let drop_file_link_tx tx t ~ino =
  let at, ip = inode_at tx t ino in
  if Engine.read_int tx ip i_kind <> kind_file then
    err "Fs: ino %d is not a regular file" ino;
  apply_drop_link tx t (declare_drop_link tx t ~at ~ip)

(* Freeing an empty, unlinked directory: its index tree, its inode and its
   inode-table binding. [idx] is its index, which the caller probed
   empty. *)
let declare_free_dir tx ~at ~ip idx =
  Btree.declare_destroy_empty tx idx;
  Engine.declare_free tx ip;
  Btree.declare_delete tx at

let apply_free_dir tx t ~at ~ip idx =
  Btree.destroy_empty tx idx;
  Engine.free tx ip;
  ignore (Btree.delete_at tx t.itab at)

let free_dir_tx tx t ~ino =
  let at, ip = inode_at tx t ino in
  if Engine.read_int tx ip i_kind <> kind_dir then
    err "Fs: ino %d is not a directory" ino;
  let idx = dir_index_tx tx t ip in
  if not (Btree.is_empty_tx tx idx) then err "Fs: directory %d not empty" ino;
  declare_free_dir tx ~at ~ip idx;
  apply_free_dir tx t ~at ~ip idx

let touch_moved_tx tx t ~ino ~new_parent =
  let ip = inode_ptr_tx tx t ino in
  Engine.add tx ip;
  Engine.write_int tx ip i_gen (Engine.read_int tx ip i_gen + 1);
  match new_parent with
  | Some p -> Engine.write_int tx ip i_parent p
  | None -> ()

(* --- Composite operations ------------------------------------------------- *)

(* create and mkdir: the new inode's objects and its dirent come from one
   allocation. *)
let make_tx tx t kind ~dir ~parent ~what name =
  check_name name;
  let s = find_slot tx t ~dir ~name in
  if s.de <> Heap.null then err "Fs.%s: %s exists" what name;
  let m = plan_mknod tx t in
  declare_dirent_add tx s;
  let objs = Engine.alloc_many tx (named_sizes kind) in
  let de = List.hd (apply_mknod tx t kind ~parent m objs) in
  apply_dirent_add tx s ~de ~name ~ino:m.m_ino;
  m.m_ino

let create_tx tx t ~dir name = make_tx tx t File ~dir ~parent:(-1) ~what:"create" name
let mkdir_tx tx t ~dir name = make_tx tx t Dir ~dir ~parent:dir ~what:"mkdir" name

let link_tx tx t ~ino ~dir name =
  check_name name;
  let s = find_slot tx t ~dir ~name in
  if s.de <> Heap.null then err "Fs.link: %s exists" name;
  let ip = link_target tx t ~ino in
  Engine.add tx ip;
  declare_dirent_add tx s;
  let de = Engine.alloc tx dirent_size in
  Engine.write_int tx ip i_nlink (Engine.read_int tx ip i_nlink + 1);
  apply_dirent_add tx s ~de ~name ~ino

let unlink_tx tx t ~dir name =
  check_name name;
  let s = find_slot tx t ~dir ~name in
  if s.de = Heap.null then err "Fs.unlink: %s: no such entry" name;
  let at, ip = inode_at tx t (Engine.read_int tx s.de d_ino) in
  if Engine.read_int tx ip i_kind <> kind_file then
    err "Fs.unlink: %s is a directory (use rmdir)" name;
  let nxt = declare_dirent_remove tx s in
  let d = declare_drop_link tx t ~at ~ip in
  apply_dirent_remove tx s ~nxt;
  apply_drop_link tx t d

let rmdir_tx tx t ~dir name =
  check_name name;
  let s = find_slot tx t ~dir ~name in
  if s.de = Heap.null then err "Fs.rmdir: %s: no such entry" name;
  let at, ip = inode_at tx t (Engine.read_int tx s.de d_ino) in
  if Engine.read_int tx ip i_kind <> kind_dir then err "Fs.rmdir: %s is not a directory" name;
  let idx = dir_index_tx tx t ip in
  if not (Btree.is_empty_tx tx idx) then err "Fs.rmdir: %s not empty" name;
  let nxt = declare_dirent_remove tx s in
  declare_free_dir tx ~at ~ip idx;
  apply_dirent_remove tx s ~nxt;
  apply_free_dir tx t ~at ~ip idx

(* Walk [cur]'s parent chain; [Fs_error] if it passes through [m]. *)
let check_no_cycle tx t ~moved:m ~dst =
  let rec up cur fuel =
    if cur = m then err "Fs.rename: would create a cycle";
    if fuel = 0 then err "Fs.rename: parent chain does not reach a root";
    let cp = inode_ptr_tx tx t cur in
    let parent = Engine.read_int tx cp i_parent in
    if parent <> cur then up parent (fuel - 1)
  in
  up dst 1_000_000

let rename_tx tx t ~src ~src_name ~dst ~dst_name =
  check_name src_name;
  check_name dst_name;
  if src = dst && src_name = dst_name then ()
  else begin
    let s = find_slot tx t ~dir:src ~name:src_name in
    ignore (dir_of_tx tx t dst);
    if s.de = Heap.null then err "Fs.rename: %s: no such entry" src_name;
    let m = Engine.read_int tx s.de d_ino in
    let mkind = kind_tx tx t m in
    if mkind = Dir then check_no_cycle tx t ~moved:m ~dst;
    (match dirent_lookup_tx tx t ~dir:dst ~name:dst_name with
    | Some c when c = m ->
        (* Two links to the same inode: clobbering would drop the moved
           inode's own link (possibly freeing it) before re-linking. *)
        err "Fs.rename: %s already names the same inode" dst_name
    | Some c ->
        if kind_tx tx t c <> File then
          err "Fs.rename: %s exists and is a directory" dst_name;
        if mkind <> File then
          err "Fs.rename: cannot replace %s with a directory" dst_name;
        ignore (dirent_remove_tx tx t ~dir:dst ~name:dst_name);
        drop_file_link_tx tx t ~ino:c
    | None -> ());
    ignore (dirent_remove_tx tx t ~dir:src ~name:src_name);
    dirent_add_tx tx t ~dir:dst ~name:dst_name ~ino:m;
    touch_moved_tx tx t ~ino:m
      ~new_parent:(if mkind = Dir then Some dst else None)
  end

let write_tx tx t ~ino ~off data =
  if off < 0 then err "Fs.write: negative offset";
  let ip = inode_ptr_tx tx t ino in
  if Engine.read_int tx ip i_kind <> kind_file then
    err "Fs.write: ino %d is not a file" ino;
  let len = String.length data in
  if len > 0 then begin
    Engine.add tx ip;
    let old_size = Engine.read_int tx ip i_size in
    let new_size = max old_size (off + len) in
    let old_nb = blocks_for t old_size and new_nb = blocks_for t new_size in
    let from_b = off / t.block_size and to_b = (off + len - 1) / t.block_size in
    (* Walk the chain through the written blocks that exist and the tail
       node the file grows from. *)
    let last = if new_nb > old_nb then old_nb - 1 else to_b in
    let blks = Array.make (to_b - from_b + 1) Heap.null in
    let nodes =
      walk_chain tx ip ~nn:(ext_nodes (last + 1)) ~from_b ~to_b:(min to_b (old_nb - 1)) blks
    in
    if new_nb > old_nb then Engine.add tx t.sb;
    (* Bytes [lo, hi) of the write land in block [b], at [lo - blo]. *)
    for b = from_b to min to_b (old_nb - 1) do
      let blo = b * t.block_size in
      let lo = max off blo and hi = min (off + len) (blo + t.block_size) in
      Engine.add_field tx blks.(b - from_b) (lo - blo) (hi - lo)
    done;
    grow tx t ip nodes ~old_nb ~new_nb ~from_b blks;
    for b = from_b to to_b do
      let blo = b * t.block_size in
      let lo = max off blo and hi = min (off + len) (blo + t.block_size) in
      Engine.write_string tx blks.(b - from_b) (lo - blo) (String.sub data (lo - off) (hi - lo))
    done;
    if new_size > old_size then Engine.write_int tx ip i_size new_size;
    if new_nb > old_nb then add_block_count tx t (new_nb - old_nb)
  end

let truncate_tx tx t ~ino ~len =
  if len < 0 then err "Fs.truncate: negative length";
  let ip = inode_ptr_tx tx t ino in
  if Engine.read_int tx ip i_kind <> kind_file then
    err "Fs.truncate: ino %d is not a file" ino;
  let old_size = Engine.read_int tx ip i_size in
  if len <> old_size then begin
    Engine.add tx ip;
    let old_nb = blocks_for t old_size and new_nb = blocks_for t len in
    if new_nb <> old_nb then Engine.add tx t.sb;
    if len > old_size then begin
      let nn = if new_nb > old_nb then ext_nodes old_nb else 0 in
      let nodes = walk_chain tx ip ~nn ~from_b:0 ~to_b:(-1) [||] in
      grow tx t ip nodes ~old_nb ~new_nb ~from_b:new_nb [||]
    end
    else shrink tx t ip ~len ~old_nb;
    Engine.write_int tx ip i_size len;
    if new_nb <> old_nb then add_block_count tx t (new_nb - old_nb)
  end

let read_op_tx tx t ~ino ~off ~len =
  if off < 0 || len < 0 then err "Fs.read: negative offset/length";
  let ip = inode_ptr_tx tx t ino in
  if Engine.read_int tx ip i_kind <> kind_file then
    err "Fs.read: ino %d is not a file" ino;
  Engine.read_lock tx ip;
  let size = Engine.read_int tx ip i_size in
  let off = min off size in
  let len = min len (size - off) in
  if len <= 0 then ""
  else begin
    let from_b = off / t.block_size and to_b = (off + len - 1) / t.block_size in
    let blks = Array.make (to_b - from_b + 1) Heap.null in
    ignore (walk_chain tx ip ~nn:(ext_nodes (to_b + 1)) ~from_b ~to_b blks);
    let buf = Buffer.create len in
    for b = from_b to to_b do
      let blo = b * t.block_size in
      let lo = max off blo and hi = min (off + len) (blo + t.block_size) in
      Buffer.add_bytes buf (Engine.read_bytes tx blks.(b - from_b) (lo - blo) (hi - lo))
    done;
    Buffer.contents buf
  end

let readdir_tx tx t ~dir =
  let idx = dir_of_tx tx t dir in
  Btree.fold_range_tx tx idx ~lo:0 ~hi:max_int ~init:[] ~f:(fun acc _key head ->
      let rec go p acc =
        if p = Heap.null then acc
        else
          let name = Engine.read_prefixed tx p d_nlen ~max:max_name_len in
          go (Engine.read_int tx p d_next)
            ((name, Engine.read_int tx p d_ino) :: acc)
      in
      go head acc)
  |> List.rev

(* --- Public wrappers: one transaction + one obs span per call ------------- *)

let record_op t ~op ~t0 ~ino ~aux =
  let dur = Engine.now t.engine - t0 in
  Metrics.observe t.hists.(op) dur;
  let obs = Engine.obs t.engine in
  if Obs.enabled obs then
    Obs.emit obs ~kind:Obs.k_fs_op ~track:t.obs_track ~ts:t0 ~dur ~a:op ~b:ino
      ~c:aux

(* Not [Engine.with_tx]: a semantic [Fs_error] raised mid-validation must
   surface even on engines whose [abort] raises (No_logging), and a crash
   injected at a fence mid-operation leaves a finished transaction behind
   ([abort] then raises [Tx_finished]). *)
let op_span t op f =
  let t0 = Engine.now t.engine in
  let tx = Engine.begin_tx t.engine in
  match f tx with
  | r, ino, aux ->
      Engine.commit tx;
      record_op t ~op ~t0 ~ino ~aux;
      r
  | exception exn ->
      (try Engine.abort tx with Engine.Error _ -> ());
      raise exn

let create t ~dir name =
  op_span t op_create (fun tx ->
      let ino = create_tx tx t ~dir name in
      (ino, ino, dir))

let mkdir t ~dir name =
  op_span t op_mkdir (fun tx ->
      let ino = mkdir_tx tx t ~dir name in
      (ino, ino, dir))

let write t ~ino ~off data =
  op_span t op_write (fun tx ->
      write_tx tx t ~ino ~off data;
      ((), ino, String.length data))

let read t ~ino ~off ~len =
  op_span t op_read (fun tx ->
      let s = read_op_tx tx t ~ino ~off ~len in
      (s, ino, String.length s))

let readdir t ~dir =
  op_span t op_readdir (fun tx ->
      let es = readdir_tx tx t ~dir in
      (es, dir, List.length es))

let rename t ~src ~src_name ~dst ~dst_name =
  op_span t op_rename (fun tx ->
      rename_tx tx t ~src ~src_name ~dst ~dst_name;
      ((), src, dst))

let link t ~ino ~dir name =
  op_span t op_link (fun tx ->
      link_tx tx t ~ino ~dir name;
      ((), ino, dir))

let unlink t ~dir name =
  op_span t op_unlink (fun tx ->
      unlink_tx tx t ~dir name;
      ((), dir, 0))

let rmdir t ~dir name =
  op_span t op_rmdir (fun tx ->
      rmdir_tx tx t ~dir name;
      ((), dir, 0))

let truncate t ~ino ~len =
  op_span t op_truncate (fun tx ->
      truncate_tx tx t ~ino ~len;
      ((), ino, len))

(* --- Committed-state conveniences ----------------------------------------- *)

let lookup t ~dir name =
  match inode_ptr t dir with
  | None -> None
  | Some dp when Engine.peek_int t.engine dp i_kind <> kind_dir -> None
  | Some dp -> (
      let e = t.engine in
      match Btree.find (dir_index t dp) (hash_name t name) with
      | None -> None
      | Some head ->
          let rec go p =
            if p = Heap.null then None
            else if Engine.peek_prefixed e p d_nlen ~max:max_name_len = name then
              Some (Engine.peek_int e p d_ino)
            else go (Engine.peek_int e p d_next)
          in
          go head)

let resolve t path =
  let parts = List.filter (fun s -> s <> "") (String.split_on_char '/' path) in
  let rec go dir = function
    | [] -> Some dir
    | name :: rest -> (
        match lookup t ~dir name with None -> None | Some i -> go i rest)
  in
  go (root_ino t) parts

let dump t =
  let buf = Buffer.create 256 in
  let rec go indent dir =
    let entries =
      readdir t ~dir |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    List.iter
      (fun (name, ino) ->
        let st = stat t ino in
        match st.kind with
        | Dir ->
            Printf.bprintf buf "%s%s/ (ino %d, %d entries)\n" indent name ino
              st.size;
            go (indent ^ "  ") ino
        | File ->
            Printf.bprintf buf "%s%s (ino %d, %d bytes, nlink %d, gen %d)\n"
              indent name ino st.size st.nlink st.gen)
      entries
  in
  let r = root_ino t in
  Printf.bprintf buf "/ (ino %d, %d entries)\n" r (stat t r).size;
  go "  " r;
  Buffer.contents buf
