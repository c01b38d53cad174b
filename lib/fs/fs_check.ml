module Engine = Kamino_core.Engine
module Heap = Kamino_heap.Heap
module Btree = Kamino_index.Btree
open Fs.Layout

exception Bad of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

type inode_info = {
  shard : int;
  ptr : Heap.ptr;
  ikind : int;
  nlink : int;
  isize : int;
  parent : int;
}

(* Claim object [p] for [role] in shard [s]'s accounting table. Claiming
   an object twice is the doubly-referenced failure — and because every
   chain walk claims a node before following its next pointer, it also
   bounds walks over corrupt cyclic chains. *)
let claim s tbl heap p role =
  if p = Heap.null then fail "shard %d: %s is a null pointer" s role;
  if not (Heap.is_allocated heap p) then
    fail "shard %d: %s at %d is not an allocated object" s role p;
  match Hashtbl.find_opt tbl p with
  | Some other -> fail "shard %d: object %d doubly referenced: %s and %s" s p other role
  | None -> Hashtbl.add tbl p role

let fsck_cluster ?(strict_heap = true) fss =
  let n = Array.length fss in
  if n = 0 then invalid_arg "Fs_check.fsck_cluster: no shards";
  let t0s = Array.map (fun fs -> Engine.now (Fs.engine fs)) fss in
  let inodes : (int, inode_info) Hashtbl.t = Hashtbl.create 64 in
  let refs : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let child_parent : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let claimed = Array.map (fun _ -> Hashtbl.create 64) fss in
  (* Per shard: inode object -> ino, and the name slots a reference
     names. *)
  let inode_objs = Array.map (fun _ -> Hashtbl.create 64) fss in
  let slots_named = Array.map (fun _ -> Hashtbl.create 64) fss in
  let per_shard_inos = Array.make n [] in
  let result =
    try
      (* Pass A: superblocks and inode tables, all shards. *)
      Array.iteri
        (fun s fs ->
          let e = Fs.engine fs in
          let heap = Engine.heap e in
          let sb = Fs.superblock fs in
          let pk p off = Engine.peek_int e p off in
          claim s claimed.(s) heap sb "superblock";
          if pk sb sb_magic <> magic then fail "shard %d: bad superblock magic" s;
          if pk sb sb_version <> version then
            fail "shard %d: superblock version %d" s (pk sb sb_version);
          if pk sb sb_block_size <> Fs.block_size fs then
            fail "shard %d: superblock block_size disagrees with the handle" s;
          if pk sb sb_ino_base <> s || pk sb sb_ino_stride <> n then
            fail "shard %d: ino class (%d,%d), expected (%d,%d)" s
              (pk sb sb_ino_base) (pk sb sb_ino_stride) s n;
          if s > 0 && pk sb sb_root_ino >= 0 then
            fail "shard %d: non-zero shard claims the root" s;
          let itab = Fs.itab fs in
          (match Btree.validate itab with
          | Ok () -> ()
          | Error m -> fail "shard %d: inode table invalid: %s" s m);
          Btree.iter_nodes itab (fun p -> claim s claimed.(s) heap p "itab node");
          (* A file's inode object holds its block 0: it is the class of
             [file_inode_size], a directory's the class of [inode_size]. *)
          let class_of size = Heap.size_classes.(Heap.class_of_size size) in
          let file_obj = class_of (file_inode_size (Fs.block_size fs))
          and dir_obj = class_of inode_size in
          Btree.iter itab (fun ino ip ->
              claim s claimed.(s) heap ip (Printf.sprintf "inode %d" ino);
              Hashtbl.replace inode_objs.(s) ip ino;
              if pk ip i_ino <> ino then
                fail "shard %d: inode %d records ino %d" s ino (pk ip i_ino);
              if ino < 0 || ino mod n <> s then
                fail "shard %d: inode %d is not in this shard's ino class" s ino;
              let k = pk ip i_kind in
              if k <> kind_file && k <> kind_dir then
                fail "shard %d: inode %d has kind %d" s ino k;
              let want = if k = kind_file then file_obj else dir_obj in
              if Heap.capacity heap ip <> want then
                fail "shard %d: %s inode %d is a %d-byte object, not %d" s
                  (if k = kind_file then "file" else "dir")
                  ino (Heap.capacity heap ip) want;
              if pk ip i_reserved <> 0 then
                fail "shard %d: inode %d has reserved word %d, not 0" s ino (pk ip i_reserved);
              let nlink = pk ip i_nlink in
              if nlink < 1 then fail "shard %d: inode %d has nlink %d" s ino nlink;
              let isize = pk ip i_size in
              if isize < 0 then fail "shard %d: inode %d has size %d" s ino isize;
              if Hashtbl.mem inodes ino then
                fail "shard %d: ino %d appears twice in the cluster" s ino;
              Hashtbl.add inodes ino
                { shard = s; ptr = ip; ikind = k; nlink; isize; parent = pk ip i_parent };
              per_shard_inos.(s) <- ino :: per_shard_inos.(s)))
        fss;
      (* Pass B: directory indexes, dirent chains, file extents, the
         per-shard block count and heap accounting. *)
      Array.iteri
        (fun s fs ->
          let e = Fs.engine fs in
          let heap = Engine.heap e in
          let sb = Fs.superblock fs in
          let bs = Fs.block_size fs in
          let pk p off = Engine.peek_int e p off in
          let de_peek r f = pk (de_owner r) (de_field r f) in
          let nblocks = ref 0 in
          List.iter
            (fun ino ->
              let info = Hashtbl.find inodes ino in
              if info.ikind = kind_dir then begin
                (* A directory's size word is unused: its entry count is
                   its index's. *)
                if info.isize <> 0 then
                  fail "shard %d: dir %d has size word %d, not 0" s ino info.isize;
                let idx = Btree.attach e (pk info.ptr i_head) in
                (match Btree.validate idx with
                | Ok () -> ()
                | Error m -> fail "shard %d: dir %d index invalid: %s" s ino m);
                Btree.iter_nodes idx (fun p ->
                    claim s claimed.(s) heap p (Printf.sprintf "dir %d index node" ino));
                let names = Hashtbl.create 8 in
                Btree.iter idx (fun key head ->
                    let rec walk p =
                      if p <> Heap.null then begin
                        (* A standalone dirent is claimed once; a name slot
                           lives in an inode object of this shard, is named
                           at most once (which bounds a cyclic chain, as
                           the claim does), has a name of 1..max_name_len
                           bytes and names its own inode. *)
                        if is_slot p then begin
                          let ip = de_owner p in
                          match Hashtbl.find_opt inode_objs.(s) ip with
                          | None ->
                              fail "shard %d: dir %d: tagged reference %d names no inode object"
                                s ino p
                          | Some owner ->
                              if Hashtbl.mem slots_named.(s) ip then
                                fail "shard %d: name slot of inode %d referenced twice" s owner;
                              Hashtbl.add slots_named.(s) ip ();
                              let nlen = de_peek p d_nlen in
                              if nlen < 1 || nlen > max_name_len then
                                fail "shard %d: dir %d: name slot of inode %d has length %d" s
                                  ino owner nlen;
                              if de_peek p d_ino <> owner then
                                fail "shard %d: dir %d: name slot of inode %d names ino %d" s
                                  ino owner (de_peek p d_ino)
                        end
                        else claim s claimed.(s) heap p (Printf.sprintf "dirent in dir %d" ino);
                        let name =
                          match
                            Engine.peek_prefixed e (de_owner p) (de_field p d_nlen)
                              ~max:max_name_len
                          with
                          | name -> name
                          | exception Kamino_nvm.Region.Corrupt { what; _ } ->
                              fail "shard %d: dir %d dirent name: %s" s ino what
                        in
                        (match Fs.check_name name with
                        | () -> ()
                        | exception Fs.Fs_error m ->
                            fail "shard %d: dir %d: invalid name: %s" s ino m);
                        if Fs.hash_name fs name <> key then
                          fail "shard %d: dir %d: %S chained under key %d, hash %d" s
                            ino name key (Fs.hash_name fs name);
                        if Hashtbl.mem names name then
                          fail "shard %d: dir %d: duplicate entry %S" s ino name;
                        Hashtbl.add names name ();
                        let target = de_peek p d_ino in
                        Hashtbl.replace refs target
                          (1 + Option.value ~default:0 (Hashtbl.find_opt refs target));
                        (match Hashtbl.find_opt inodes target with
                        | None ->
                            fail "shard %d: dir %d: %S references missing ino %d" s
                              ino name target
                        | Some ti ->
                            if ti.ikind = kind_dir then
                              if Hashtbl.mem child_parent target then
                                fail "directory %d referenced from two directories"
                                  target
                              else Hashtbl.add child_parent target ino);
                        walk (de_peek p d_next)
                      end
                    in
                    walk head)
              end
              else begin
                (* Regular file: exact coverage under {!Fs.Layout}'s
                   block addressing. Every holder the file owns is walked
                   (claiming each chain node before following its link,
                   which bounds a cyclic chain), every slot they hold is
                   a block below EOF or null, and the last one links
                   nowhere. Block 0 is inline and has no slot. *)
                let size = info.isize in
                let nb = (size + bs - 1) / bs in
                let nnodes = ext_nodes nb in
                nblocks := !nblocks + nb;
                let holders = Array.make (nnodes + 1) info.ptr in
                for k = 1 to nnodes do
                  holders.(k) <- pk holders.(k - 1) (link_off (k - 1));
                  claim s claimed.(s) heap holders.(k)
                    (Printf.sprintf "extent node %d of file %d" (k - 1) ino)
                done;
                (* For a file of at most one block: a null [i_head]. *)
                if pk holders.(nnodes) (link_off nnodes) <> Heap.null then
                  fail "shard %d: file %d of %d block(s) has an extent chain longer than %d"
                    s ino nb nnodes;
                let last_blk = ref Heap.null in
                for b = 1 to nnodes * ext_slots do
                  let blk = pk holders.(blk_holder b) (blk_slot b) in
                  if b < nb then begin
                    claim s claimed.(s) heap blk (Printf.sprintf "block %d of file %d" b ino);
                    if Heap.capacity heap blk < bs then
                      fail "shard %d: file %d block %d too small" s ino b;
                    if b = nb - 1 then last_blk := blk
                  end
                  else if blk <> Heap.null then
                    fail "shard %d: file %d has a block pointer past EOF (slot %d)" s ino b
                done;
                (* Bytes past EOF must be zero — the strongest torn-write
                   detector fsck has: from EOF (or the end of block 0) to
                   the end of the inode object, whatever the size, and to
                   the end of the last block when it is not block 0. *)
                let zero_from p ~off ~base =
                  let cap = Heap.capacity heap p in
                  if off < cap then
                    Bytes.iteri
                      (fun i c ->
                        if c <> '\000' then
                          fail "shard %d: file %d has nonzero byte %d past EOF" s ino
                            (base + off + i))
                      (Engine.peek_bytes e p off (cap - off))
                in
                zero_from info.ptr ~off:(i_data + min size bs) ~base:(-i_data);
                if nb > 1 then
                  zero_from !last_blk ~off:(size - ((nb - 1) * bs)) ~base:((nb - 1) * bs)
              end)
            per_shard_inos.(s);
          (* A name slot no reference names is clear. *)
          List.iter
            (fun ino ->
              let ip = (Hashtbl.find inodes ino).ptr in
              if (not (Hashtbl.mem slots_named.(s) ip)) && pk ip (i_name + d_nlen) <> 0 then
                fail "shard %d: inode %d: unreferenced name slot has length %d" s ino
                  (pk ip (i_name + d_nlen)))
            per_shard_inos.(s);
          if pk sb sb_block_count <> !nblocks then
            fail "shard %d: superblock says %d blocks, found %d" s
              (pk sb sb_block_count) !nblocks;
          if strict_heap then begin
            (match Heap.validate heap with
            | Ok () -> ()
            | Error m -> fail "shard %d: heap invalid: %s" s m);
            Heap.iter_objects heap (fun p ~capacity ~allocated ->
                if allocated && not (Hashtbl.mem claimed.(s) p) then
                  fail "shard %d: orphaned object %d (capacity %d)" s p capacity)
          end)
        fss;
      (* Pass C: global link counts, parents, rooted acyclic tree. *)
      if not (Fs.has_root fss.(0)) then fail "shard 0 has no root directory";
      let root = Fs.root_ino fss.(0) in
      Hashtbl.iter
        (fun ino r ->
          if not (Hashtbl.mem inodes ino) then
            fail "%d dirent(s) reference missing ino %d" r ino)
        refs;
      Hashtbl.iter
        (fun ino info ->
          let r = Option.value ~default:0 (Hashtbl.find_opt refs ino) in
          let expected = info.nlink - if ino = root then 1 else 0 in
          if r <> expected then
            fail "ino %d: nlink %d but %d dirent reference(s)%s" ino info.nlink r
              (if ino = root then " (+1 superblock root)" else "");
          if info.ikind = kind_dir then begin
            if ino = root then begin
              if r <> 0 then fail "root %d has a dirent reference" ino;
              if info.parent <> root then fail "root %d is not its own parent" ino
            end
            else begin
              if r <> 1 then fail "directory %d has %d references" ino r;
              match Hashtbl.find_opt child_parent ino with
              | None -> fail "directory %d unreachable" ino
              | Some p ->
                  if info.parent <> p then
                    fail "directory %d: parent field %d but linked under %d" ino
                      info.parent p
            end
          end)
        inodes;
      (* Every parent chain reaches the root within |dirs| hops. *)
      let ndirs_total = Hashtbl.length child_parent + 1 in
      Hashtbl.iter
        (fun ino info ->
          if info.ikind = kind_dir then begin
            let rec up cur fuel =
              if cur <> root then
                if fuel = 0 then fail "directory %d: parent chain has a cycle" ino
                else
                  match Hashtbl.find_opt inodes cur with
                  | None -> fail "directory %d: parent chain hits missing ino %d" ino cur
                  | Some i -> up i.parent (fuel - 1)
            in
            up ino ndirs_total
          end)
        inodes;
      Ok ()
    with Bad m -> Error m
  in
  Array.iteri
    (fun s fs -> Fs.record_op fs ~op:Fs.op_fsck ~t0:t0s.(s) ~ino:(-1) ~aux:n)
    fss;
  result

let fsck ?strict_heap fs = fsck_cluster ?strict_heap [| fs |]
