(* Tests for the transactional filesystem: functional coverage of every
   operation, the fsck oracle's ability to detect planted corruption,
   deterministic crash injection at every fence of nine operations (and
   of the recoveries that follow) across every engine kind and crash
   mode, the rename all-or-nothing property, the sharded façade
   (including crashes at every fence of the 2PC protocol), and
   trace/metrics determinism of the fs observability hooks. *)

module Rng = Kamino_sim.Rng
module Heap = Kamino_heap.Heap
module Region = Kamino_nvm.Region
module Commit_marker = Kamino_nvm.Commit_marker
module Engine = Kamino_core.Engine
module Btree = Kamino_index.Btree
module Obs = Kamino_obs.Obs
module Metrics = Kamino_obs.Metrics
module Sink = Kamino_obs.Sink
module Shard = Kamino_shard.Shard
module Fs = Kamino_fs.Fs
module Fs_check = Kamino_fs.Fs_check
module Shard_fs = Kamino_fs.Shard_fs

let config =
  {
    Engine.default_config with
    Engine.heap_bytes = 2 lsl 20;
    log_slots = 64;
    max_tx_entries = 8192;
    data_log_bytes = 2 lsl 20;
  }

(* The engine kinds of the crash coverage are {!Tx_model.kinds}. *)
let make_fs ?(config = config) ?(block_size = 64) ?(dir_hash_bits = 2) spec seed =
  Tx_model.create spec ~config ~seed ~init:(Fs.format ~block_size ~dir_hash_bits)

let simple = Tx_model.Plain Engine.Kamino_simple

let check_fsck fs ctx =
  match Fs_check.fsck fs with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: fsck: %s" ctx e

let check_fsck_cluster fss ctx =
  match Fs_check.fsck_cluster fss with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: fsck_cluster: %s" ctx e

let expect_error f =
  match f () with
  | _ -> false
  | exception Fs.Fs_error _ -> true

(* --- functional coverage ---------------------------------------------------- *)

let test_tree_ops () =
  let _e, fs = make_fs ~block_size:128 ~dir_hash_bits:4 simple 3 in
  let root = Fs.root_ino fs in
  let f1 = Fs.create fs ~dir:root "hello.txt" in
  Fs.write fs ~ino:f1 ~off:0 "hello, world";
  Alcotest.(check string) "read back" "hello, world" (Fs.read fs ~ino:f1 ~off:0 ~len:100);
  Alcotest.(check string) "offset read" "world" (Fs.read fs ~ino:f1 ~off:7 ~len:5);
  Alcotest.(check string) "read past EOF is short" "" (Fs.read fs ~ino:f1 ~off:50 ~len:10);
  let d1 = Fs.mkdir fs ~dir:root "sub" in
  let f2 = Fs.create fs ~dir:d1 "nested" in
  (* Sparse write: the gap materializes as zero bytes. *)
  Fs.write fs ~ino:f2 ~off:300 "far";
  let got = Fs.read fs ~ino:f2 ~off:0 ~len:1000 in
  Alcotest.(check int) "sparse size" 303 (String.length got);
  Alcotest.(check string) "gap reads zero" (String.make 300 '\000' ^ "far") got;
  let st = Fs.stat fs f2 in
  Alcotest.(check int) "file size" 303 st.Fs.size;
  Alcotest.(check int) "file nlink" 1 st.Fs.nlink;
  Alcotest.(check bool) "file kind" true (st.Fs.kind = Fs.File);
  let std = Fs.stat fs d1 in
  Alcotest.(check bool) "dir kind" true (std.Fs.kind = Fs.Dir);
  Alcotest.(check int) "dir entry count" 1 std.Fs.size;
  Alcotest.(check int) "dir parent" root std.Fs.parent;
  Alcotest.(check (list string)) "readdir root"
    [ "hello.txt"; "sub" ]
    (List.sort compare (List.map fst (Fs.readdir fs ~dir:root)));
  Alcotest.(check (option int)) "resolve path" (Some f2) (Fs.resolve fs "/sub/nested");
  Alcotest.(check (option int)) "resolve missing" None (Fs.resolve fs "/sub/ghost");
  check_fsck fs "mid functional";
  (* Rename within a directory, then across directories. *)
  Fs.rename fs ~src:root ~src_name:"hello.txt" ~dst:root ~dst_name:"renamed";
  Alcotest.(check (option int)) "old name gone" None (Fs.lookup fs ~dir:root "hello.txt");
  Alcotest.(check (option int)) "new name" (Some f1) (Fs.lookup fs ~dir:root "renamed");
  let g0 = (Fs.stat fs f1).Fs.gen in
  Fs.rename fs ~src:root ~src_name:"renamed" ~dst:d1 ~dst_name:"moved";
  Alcotest.(check (option int)) "cross-dir rename" (Some f1) (Fs.lookup fs ~dir:d1 "moved");
  Alcotest.(check bool) "rename bumps gen" true ((Fs.stat fs f1).Fs.gen > g0);
  Alcotest.(check string) "content follows the inode" "hello, world"
    (Fs.read fs ~ino:f1 ~off:0 ~len:100);
  (* Clobbering rename drops the target's last link. *)
  Fs.rename fs ~src:d1 ~src_name:"moved" ~dst:d1 ~dst_name:"nested";
  Alcotest.(check (option int)) "clobber wins" (Some f1) (Fs.lookup fs ~dir:d1 "nested");
  Alcotest.(check (option int)) "clobbered inode freed" None (Fs.inode_ptr fs f2);
  check_fsck fs "after clobber";
  (* Hard links. *)
  Fs.link fs ~ino:f1 ~dir:root "hard";
  Alcotest.(check int) "nlink 2" 2 (Fs.stat fs f1).Fs.nlink;
  Fs.write fs ~ino:f1 ~off:0 "HELLO";
  Alcotest.(check string) "both names, one inode" "HELLO, world"
    (Fs.read fs ~ino:(Option.get (Fs.lookup fs ~dir:root "hard")) ~off:0 ~len:100);
  Fs.unlink fs ~dir:d1 "nested";
  Alcotest.(check int) "nlink back to 1" 1 (Fs.stat fs f1).Fs.nlink;
  Alcotest.(check bool) "survives while linked" true (Fs.inode_ptr fs f1 <> None);
  (* Truncate shrink and grow. *)
  Fs.truncate fs ~ino:f1 ~len:5;
  Alcotest.(check string) "shrunk" "HELLO" (Fs.read fs ~ino:f1 ~off:0 ~len:100);
  Fs.truncate fs ~ino:f1 ~len:300;
  Alcotest.(check string) "grown with zeros" ("HELLO" ^ String.make 295 '\000')
    (Fs.read fs ~ino:f1 ~off:0 ~len:1000);
  Fs.truncate fs ~ino:f1 ~len:0;
  Alcotest.(check string) "truncated to empty" "" (Fs.read fs ~ino:f1 ~off:0 ~len:10);
  check_fsck fs "after truncates";
  (* Teardown. *)
  Fs.unlink fs ~dir:root "hard";
  Alcotest.(check (option int)) "last unlink frees" None (Fs.inode_ptr fs f1);
  Fs.rmdir fs ~dir:root "sub";
  Alcotest.(check (list string)) "root empty again" []
    (List.map fst (Fs.readdir fs ~dir:root));
  check_fsck fs "emptied";
  let dump = Fs.dump fs in
  Alcotest.(check bool) "dump renders" true (String.length dump > 0)

let test_errors () =
  let _e, fs = make_fs ~block_size:128 ~dir_hash_bits:4 simple 4 in
  let root = Fs.root_ino fs in
  let d = Fs.mkdir fs ~dir:root "d" in
  let f = Fs.create fs ~dir:root "f" in
  let sub = Fs.mkdir fs ~dir:d "sub" in
  Alcotest.(check bool) "duplicate create" true
    (expect_error (fun () -> Fs.create fs ~dir:root "f"));
  Alcotest.(check bool) "duplicate mkdir over file" true
    (expect_error (fun () -> Fs.mkdir fs ~dir:root "f"));
  Alcotest.(check bool) "unlink a directory" true
    (expect_error (fun () -> Fs.unlink fs ~dir:root "d"));
  Alcotest.(check bool) "rmdir a file" true
    (expect_error (fun () -> Fs.rmdir fs ~dir:root "f"));
  Alcotest.(check bool) "rmdir non-empty" true
    (expect_error (fun () -> Fs.rmdir fs ~dir:root "d"));
  Alcotest.(check bool) "unlink missing" true
    (expect_error (fun () -> Fs.unlink fs ~dir:root "ghost"));
  Alcotest.(check bool) "rename missing" true
    (expect_error (fun () ->
         Fs.rename fs ~src:root ~src_name:"ghost" ~dst:root ~dst_name:"g2"));
  Alcotest.(check bool) "rename dir under itself" true
    (expect_error (fun () ->
         Fs.rename fs ~src:root ~src_name:"d" ~dst:sub ~dst_name:"loop"));
  Alcotest.(check bool) "rename dir over file" true
    (expect_error (fun () ->
         Fs.rename fs ~src:root ~src_name:"d" ~dst:root ~dst_name:"f"));
  Alcotest.(check bool) "rename file over dir" true
    (expect_error (fun () ->
         Fs.rename fs ~src:root ~src_name:"f" ~dst:root ~dst_name:"d"));
  Fs.link fs ~ino:f ~dir:root "f2";
  Alcotest.(check bool) "rename over a link to itself" true
    (expect_error (fun () ->
         Fs.rename fs ~src:root ~src_name:"f" ~dst:root ~dst_name:"f2"));
  Alcotest.(check bool) "link a directory" true
    (expect_error (fun () -> Fs.link fs ~ino:d ~dir:root "dlink"));
  Alcotest.(check bool) "write a directory" true
    (expect_error (fun () -> Fs.write fs ~ino:d ~off:0 "x"));
  Alcotest.(check bool) "negative write offset" true
    (expect_error (fun () -> Fs.write fs ~ino:f ~off:(-1) "x"));
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "bad name %S" bad)
        true
        (expect_error (fun () -> Fs.create fs ~dir:root bad)))
    [ ""; "."; ".."; "a/b"; "nul\000byte"; String.make (Fs.Layout.max_name_len + 1) 'x' ];
  let long = String.make Fs.Layout.max_name_len 'y' in
  ignore (Fs.create fs ~dir:root long);
  Alcotest.(check bool) "max-length name round-trips" true
    (Fs.lookup fs ~dir:root long <> None);
  check_fsck fs "after errors"

(* A one-bit name hash: every directory has at most two B+Tree keys, so
   the dirent collision chains do all the work. *)
let test_collision_chains () =
  let _e, fs = make_fs ~block_size:64 ~dir_hash_bits:1 simple 5 in
  let root = Fs.root_ino fs in
  let names = List.init 20 (Printf.sprintf "file%02d") in
  let inos = List.map (fun n -> (n, Fs.create fs ~dir:root n)) names in
  Alcotest.(check int) "all entries found" 20
    (List.length (Fs.readdir fs ~dir:root));
  List.iter
    (fun (n, i) ->
      Alcotest.(check (option int)) ("lookup " ^ n) (Some i) (Fs.lookup fs ~dir:root n))
    inos;
  check_fsck fs "collision chains";
  (* Remove from the middle, the head and the tail of chains. *)
  List.iteri (fun i (n, _) -> if i mod 2 = 0 then Fs.unlink fs ~dir:root n) inos;
  Alcotest.(check int) "half remain" 10 (List.length (Fs.readdir fs ~dir:root));
  List.iteri
    (fun i (n, ino) ->
      Alcotest.(check (option int)) ("post-unlink " ^ n)
        (if i mod 2 = 0 then None else Some ino)
        (Fs.lookup fs ~dir:root n))
    inos;
  check_fsck fs "after chain surgery"

(* --- derived words: the inode cursor and directory sizes ---------------------- *)

(* The inode cursor lives in DRAM and [attach] sets it past the inode
   table's largest key. So deleting the highest ino and then crashing and
   attaching may hand its number out again, but never the number of a
   live inode; and a handle that outlived the crash keeps its own cursor,
   which a transaction that aborts advances for good. *)
let test_cursor_after_crash () =
  let e, fs = make_fs simple 21 in
  let root = Fs.root_ino fs in
  let a = Fs.create fs ~dir:root "a" in
  Fs.write fs ~ino:a ~off:0 "kept";
  let b = Fs.create fs ~dir:root "b" in
  Fs.unlink fs ~dir:root "b";
  Engine.crash e;
  Engine.recover e;
  let fresh = Fs.attach e in
  let c = Fs.create fresh ~dir:root "c" in
  Alcotest.(check int) "the next create takes the deleted highest ino" b c;
  Alcotest.(check string) "the live file is intact" "kept" (Fs.read fresh ~ino:a ~off:0 ~len:10);
  check_fsck fresh "after a create on the attached handle";
  let tx = Engine.begin_tx e in
  let aborted = Fs.create_tx tx fs ~dir:root "aborted" in
  Engine.abort tx;
  Alcotest.(check bool) "the old handle's cursor was past c" true (aborted > c);
  let d = Fs.create fs ~dir:root "d" in
  Alcotest.(check int) "an aborted create's ino is skipped" (aborted + 1) d;
  Alcotest.(check (option int)) "c still named" (Some c) (Fs.lookup fs ~dir:root "c");
  check_fsck fs "after creates on both handles"

(* Two handles on one engine, creating in turn: each create's seek finds
   the binding the other handle made at its cursor and skips past the
   table's largest key, so no binding is overwritten. *)
let test_two_handles () =
  let e, fs1 = make_fs simple 22 in
  let fs2 = Fs.attach e in
  let root = Fs.root_ino fs1 in
  let files =
    List.init 8 (fun i ->
        let fs = if i mod 2 = 0 then fs1 else fs2 in
        let name = Printf.sprintf "h%d" i in
        let ino = Fs.create fs ~dir:root name in
        Fs.write fs ~ino ~off:0 name;
        (name, ino))
  in
  let inos = List.map snd files in
  Alcotest.(check int) "distinct inos" 8 (List.length (List.sort_uniq compare inos));
  List.iter
    (fun (name, ino) ->
      Alcotest.(check (option int)) ("lookup " ^ name) (Some ino) (Fs.lookup fs1 ~dir:root name);
      Alcotest.(check string) ("read " ^ name) name (Fs.read fs2 ~ino ~off:0 ~len:10))
    files;
  check_fsck fs1 "two handles"

(* A directory's size is computed from its index: it equals its readdir
   length through every operation that adds or drops an entry. A one-bit
   hash puts most entries on collision chains. *)
let test_dir_size () =
  let _e, fs = make_fs ~dir_hash_bits:1 simple 23 in
  let root = Fs.root_ino fs in
  let d = Fs.mkdir fs ~dir:root "d" in
  let sizes ctx =
    List.iter
      (fun dir ->
        Alcotest.(check int)
          (Printf.sprintf "%s: dir %d" ctx dir)
          (List.length (Fs.readdir fs ~dir))
          (Fs.stat fs dir).Fs.size)
      [ root; d ]
  in
  sizes "empty d";
  let files = List.init 5 (fun i -> Fs.create fs ~dir:d (Printf.sprintf "f%d" i)) in
  sizes "create";
  Fs.link fs ~ino:(List.hd files) ~dir:root "hard";
  sizes "link";
  Fs.rename fs ~src:d ~src_name:"f1" ~dst:root ~dst_name:"moved";
  sizes "rename across";
  Fs.rename fs ~src:d ~src_name:"f2" ~dst:d ~dst_name:"f2b";
  sizes "rename within";
  Fs.rename fs ~src:d ~src_name:"f3" ~dst:root ~dst_name:"moved";
  sizes "rename over a file";
  Fs.unlink fs ~dir:d "f0";
  sizes "unlink";
  Alcotest.(check int) "d holds f2b and f4" 2 (Fs.stat fs d).Fs.size;
  Alcotest.(check bool) "rmdir refuses a non-empty directory" true
    (expect_error (fun () -> Fs.rmdir fs ~dir:root "d"));
  Fs.unlink fs ~dir:d "f2b";
  Alcotest.(check bool) "... with one entry left" true
    (expect_error (fun () -> Fs.rmdir fs ~dir:root "d"));
  Fs.rename fs ~src:d ~src_name:"f4" ~dst:root ~dst_name:"last";
  sizes "emptied";
  Fs.rmdir fs ~dir:root "d";
  Alcotest.(check int) "root after rmdir" (List.length (Fs.readdir fs ~dir:root))
    (Fs.stat fs root).Fs.size;
  check_fsck fs "directory sizes"

(* --- the oracle detects planted corruption ---------------------------------- *)

let poke_int e p off v =
  Engine.with_tx e (fun tx ->
      Engine.add tx p;
      Engine.write_int tx p off v)

let test_fsck_detects_corruption () =
  let expect_violation name corrupt =
    let e, fs = make_fs ~block_size:64 ~dir_hash_bits:2 simple 6 in
    let root = Fs.root_ino fs in
    let f = Fs.create fs ~dir:root "victim" in
    Fs.write fs ~ino:f ~off:0 "some file content";
    ignore (Fs.mkdir fs ~dir:root "d");
    check_fsck fs (name ^ " (pre-corruption)");
    corrupt e fs f;
    match Fs_check.fsck fs with
    | Ok () -> Alcotest.failf "%s: fsck missed the corruption" name
    | Error _ -> ()
  in
  expect_violation "inflated nlink" (fun e fs f ->
      poke_int e (Option.get (Fs.inode_ptr fs f)) Fs.Layout.i_nlink 7);
  expect_violation "skewed block counter" (fun e fs _ ->
      let sb = Fs.superblock fs in
      poke_int e sb Fs.Layout.sb_block_count
        (Engine.peek_int e sb Fs.Layout.sb_block_count + 1));
  expect_violation "a directory size word" (fun e fs _ ->
      poke_int e (Option.get (Fs.inode_ptr fs (Fs.root_ino fs))) Fs.Layout.i_size 2);
  expect_violation "garbage past EOF" (fun e fs f ->
      (* A torn in-place write that recovery failed to roll back: a
         nonzero byte between the file size and the end of its last
         block. *)
      let ip = Option.get (Fs.inode_ptr fs f) in
      let blk = Engine.peek_int e ip Fs.Layout.i_blk0 in
      Engine.with_tx e (fun tx ->
          Engine.add tx blk;
          Engine.write_byte tx blk 30 0xAB));
  let victim_dirent e fs =
    let idx = Btree.attach e (Engine.peek_int e (Option.get (Fs.inode_ptr fs (Fs.root_ino fs))) Fs.Layout.i_head) in
    Option.get (Btree.find idx (Fs.hash_name fs "victim"))
  in
  expect_violation "dangling dirent" (fun e fs _ ->
      (* Point the victim's dirent at an inode that does not exist. *)
      poke_int e (victim_dirent e fs) Fs.Layout.d_ino 999_999);
  expect_violation "dropped size" (fun e fs f ->
      poke_int e (Option.get (Fs.inode_ptr fs f)) Fs.Layout.i_size 3);
  expect_violation "a 1-block file with an extent chain" (fun e fs f ->
      let ip = Option.get (Fs.inode_ptr fs f) in
      poke_int e ip Fs.Layout.i_head (Engine.peek_int e ip Fs.Layout.i_blk0));
  expect_violation "an empty file with a block 0 pointer" (fun e fs f ->
      (* What a torn truncate to zero would leave: the freed block still
         hanging off the inode. *)
      let ip = Option.get (Fs.inode_ptr fs f) in
      let blk = Engine.peek_int e ip Fs.Layout.i_blk0 in
      Fs.truncate fs ~ino:f ~len:0;
      poke_int e ip Fs.Layout.i_blk0 blk);
  List.iter
    (fun nlen ->
      expect_violation (Printf.sprintf "name length %d" nlen) (fun e fs _ ->
          poke_int e (victim_dirent e fs) Fs.Layout.d_nlen nlen))
    [ Fs.Layout.max_name_len + 1; -1; 0 ]

(* --- attach trusts no header word ------------------------------------------- *)

let expect_attach_error ctx word e =
  match Fs.attach e with
  | _ -> Alcotest.failf "%s: attach accepted the image" ctx
  | exception Region.Corrupt { structure = "Fs superblock"; off; what } ->
      if off <> word then Alcotest.failf "%s: %S names word %d, not %d" ctx what off word

(* One superblock word out of range at a time, on an otherwise sound image. *)
let test_attach_checks_superblock () =
  let open Fs.Layout in
  let image () =
    let e, fs = make_fs simple 12 in
    Fs.write fs ~ino:(Fs.create fs ~dir:(Fs.root_ino fs) "f") ~off:0 "kept";
    (e, Fs.superblock fs)
  in
  let e, _ = image () in
  let fs = Fs.attach e in
  Alcotest.(check string) "a sound image attaches" "kept"
    (Fs.read fs ~ino:(Option.get (Fs.resolve fs "/f")) ~off:0 ~len:10);
  List.iter
    (fun (ctx, off, v) ->
      let e, sb = image () in
      poke_int e sb off v;
      expect_attach_error ctx off e)
    [
      ("version 1", sb_version, 1);
      ("version 2", sb_version, 2);
      ("version 4", sb_version, 4);
      ("block_size 0", sb_block_size, 0);
      ("block_size 60", sb_block_size, 60);
      ("block_size past the largest object", sb_block_size, Heap.max_object_size + 8);
      ("hash_bits 0", sb_hash_bits, 0);
      ("hash_bits 62", sb_hash_bits, 62);
      ("negative ino_base", sb_ino_base, -1);
      ("ino_base equal to ino_stride", sb_ino_base, 1);
      ("ino_stride 0", sb_ino_stride, 0);
      ("null itab", sb_itab, Heap.null);
      ("itab inside the heap header", sb_itab, 8);
    ];
  let e, sb = image () in
  let freed = Engine.with_tx e (fun tx -> Engine.alloc tx 64) in
  Engine.with_tx e (fun tx ->
      Engine.declare_free tx freed;
      Engine.free tx freed);
  poke_int e sb sb_itab freed;
  expect_attach_error "itab on a freed object" sb_itab e

(* A version-1 image written word by word: its one file keeps block 0 in
   an extent node behind a 56-byte inode, so under this layout it would
   read as empty. *)
let test_attach_refuses_version_1 () =
  let open Fs.Layout in
  let e = Engine.create ~config ~kind:Engine.Kamino_simple ~seed:12 () in
  Engine.with_tx e (fun tx ->
      let itab = Btree.create tx ~node_size:itab_node_size in
      let blk = Engine.alloc tx 64 in
      Engine.write_string tx blk 0 "version one";
      let node = Engine.alloc tx ext_size in
      Engine.write_int tx node (e_slot 0) blk;
      let ip = Engine.alloc tx 56 in
      List.iter
        (fun (off, v) -> Engine.write_int tx ip off v)
        [ (i_ino, 0); (i_kind, kind_file); (i_nlink, 1); (i_size, 11); (i_parent, -1);
          (i_gen, 0); (i_head, node) ];
      ignore (Btree.insert tx itab 0 ip);
      let sb = Engine.alloc tx sb_size in
      List.iter
        (fun (off, v) -> Engine.write_int tx sb off v)
        [ (sb_magic, magic); (sb_version, 1); (sb_itab, Btree.descriptor itab);
          (sb_ino_base, 0); (sb_ino_stride, 1); (sb_root_ino, -1); (sb_block_count, 1);
          (sb_block_size, 64); (sb_hash_bits, 2) ];
      Engine.set_root tx sb);
  expect_attach_error "version-1 image" sb_version e

(* --- objects per operation ------------------------------------------------------ *)

(* Block 0 hangs off the inode: a one-block file has no extent chain, so
   its first write allocates only the block and its unlink frees the
   inode, the block and the dirent. *)
let test_object_counts () =
  let e, fs = make_fs ~block_size:512 simple 14 in
  let root = Fs.root_ino fs in
  let live () = Heap.live_objects (Engine.heap e) in
  let nodes () =
    Metrics.fold_counters (Engine.registry e) ~init:0 ~f:(fun acc n v ->
        if n = "fs.extent_nodes_allocated" then v else acc)
  in
  let l0 = live () in
  let f = Fs.create fs ~dir:root "small" in
  let l1 = live () in
  Fs.write fs ~ino:f ~off:0 (String.make 100 's');
  Alcotest.(check int) "a one-block write allocates one object" 1 (live () - l1);
  check_fsck fs "one-block file";
  Fs.unlink fs ~dir:root "small";
  Alcotest.(check int) "its unlink frees three" 3 (l1 + 1 - live ());
  Alcotest.(check int) "no extent node allocated" 0 (nodes ());
  Alcotest.(check int) "live objects back where they started" l0 (live ());
  let g = Fs.create fs ~dir:root "two" in
  let l2 = live () in
  Fs.write fs ~ino:g ~off:0 (String.make 600 't');
  Alcotest.(check int) "a 2-block file owns one node" 1 (nodes ());
  Alcotest.(check int) "... and two blocks" 3 (live () - l2);
  check_fsck fs "two-block file"

(* Random writes, truncates and reads on one file of 0..70 blocks at
   block_size 64, against a [Bytes] mirror and fsck after every op. Sizes
   are drawn mostly from both sides of the addressing rule's seams: 0|1
   blocks (the inode's own slot), 1|2 (the first chain node), 31|32 (the
   second). *)
type model_op = Write of int * int | Truncate of int | Read of int * int

let model_max = 70 * 64

let seam_sizes = [ 0; 1; 63; 64; 65; 127; 128; 129; 1983; 1984; 1985; 2047; 2048; 2049; model_max ]

let model_op_gen =
  let open QCheck.Gen in
  let size = frequency [ (3, oneofl seam_sizes); (1, int_range 0 model_max) ] in
  frequency
    [
      (3, map2 (fun off len -> Write (off, len)) size (int_range 1 150));
      (2, map (fun len -> Truncate len) size);
      (1, map2 (fun off len -> Read (off, len)) size (int_range 0 300));
    ]

let print_model_op = function
  | Write (off, len) -> Printf.sprintf "write %d+%d" off len
  | Truncate len -> Printf.sprintf "truncate %d" len
  | Read (off, len) -> Printf.sprintf "read %d+%d" off len

let block_seams_qcheck (name, spec) =
  QCheck.Test.make
    ~name:(Printf.sprintf "block seams: random write, truncate and read (%s)" name)
    ~count:30
    QCheck.(make ~print:Print.(list print_model_op) Gen.(list_size (int_range 1 30) model_op_gen))
    (fun ops ->
      let _e, fs = make_fs spec 15 in
      let f = Fs.create fs ~dir:(Fs.root_ino fs) "f" in
      let mirror = Bytes.make model_max '\000' and size = ref 0 in
      let contents () = Bytes.sub_string mirror 0 !size in
      List.iteri
        (fun i op ->
          let ctx = Printf.sprintf "op %d (%s)" i (print_model_op op) in
          (match op with
          | Write (off, len) ->
              let off = min off (model_max - len) in
              let data = String.init len (fun j -> Char.chr (65 + ((i + j) mod 26))) in
              Fs.write fs ~ino:f ~off data;
              Bytes.blit_string data 0 mirror off len;
              size := max !size (off + len)
          | Truncate len ->
              Fs.truncate fs ~ino:f ~len;
              if len < !size then Bytes.fill mirror len (!size - len) '\000';
              size := len
          | Read (off, len) ->
              let lo = min off !size in
              let want = Bytes.sub_string mirror lo (min len (!size - lo)) in
              Alcotest.(check string) (ctx ^ ": read") want (Fs.read fs ~ino:f ~off ~len));
          Alcotest.(check int) (ctx ^ ": size") !size (Fs.stat fs f).Fs.size;
          Alcotest.(check string) (ctx ^ ": contents") (contents ())
            (Fs.read fs ~ino:f ~off:0 ~len:model_max);
          check_fsck fs ctx)
        ops;
      true)

(* --- length-prefixed names ---------------------------------------------------- *)

(* A field-granular intent redirects part of a dirent under CoW. A name
   read whose record lies outside it is one load from the main heap; one
   that straddles its edges reads each part from where it lives. *)
let test_name_read_straddles_cow () =
  let e = Engine.create ~config ~kind:Engine.Cow ~seed:3 () in
  let open Fs.Layout in
  let name = "alpha-beta-gamma-delta-epsilon" in
  let de =
    Engine.with_tx e (fun tx ->
        let de = Engine.alloc tx dirent_size in
        Engine.write_int tx de d_nlen (String.length name);
        Engine.write_string tx de d_name name;
        de)
  in
  let read tx =
    let l0 = (Engine.main_counters e).Region.loads in
    let name = Engine.read_prefixed tx de d_nlen ~max:max_name_len in
    (name, (Engine.main_counters e).Region.loads - l0)
  in
  Engine.with_tx e (fun tx ->
      Engine.add_field tx de d_next 8;
      Engine.write_int tx de d_next 1;
      Alcotest.(check (pair string int)) "beside the copy: one load" (name, 1) (read tx));
  (* The copy holds the length word and the name's first 8 bytes. *)
  Engine.with_tx e (fun tx ->
      Engine.add_field tx de d_next (d_name + 8);
      Engine.write_int tx de d_nlen 13;
      Engine.write_string tx de d_name "ALPHA-BE";
      Alcotest.(check string) "straddling the copy's end" "ALPHA-BEta-ga" (fst (read tx)));
  (* Two copies: the length word, and 8 bytes inside the name, read as
     main, copy, main. *)
  let name = "ALPHA-BE" ^ String.sub name 8 22 in
  let want = String.sub name 0 16 ^ "GAMMA-DE" ^ String.sub name 24 6 in
  Engine.with_tx e (fun tx ->
      Engine.add_field tx de d_nlen 8;
      Engine.write_int tx de d_nlen (String.length name);
      Engine.add_field tx de (d_name + 16) 8;
      Engine.write_string tx de (d_name + 16) "GAMMA-DE";
      Alcotest.(check string) "a copy inside the name" want (fst (read tx)));
  Alcotest.(check string) "committed" want
    (Engine.peek_prefixed e de d_nlen ~max:max_name_len)

(* The names as two-load reads see them: the length word, then the bytes,
   along every collision chain of [dir]'s index. *)
let two_load_entries e fs dir =
  let open Fs.Layout in
  let dp = Option.get (Fs.inode_ptr fs dir) in
  let acc = ref [] in
  Btree.iter (Btree.attach e (Engine.peek_int e dp i_head)) (fun _ head ->
      let rec walk p =
        if p <> Heap.null then begin
          let nlen = Engine.peek_int e p d_nlen in
          acc := (Engine.peek_string e p d_name nlen, Engine.peek_int e p d_ino) :: !acc;
          walk (Engine.peek_int e p d_next)
        end
      in
      walk head);
  List.sort compare !acc

(* Random creates and unlinks over a one-bit name hash, so the collision
   chains are long: lookup, readdir and fsck see what two-load reads do. *)
let names_qcheck =
  let pool = Array.init 24 (fun i -> String.make (1 + (i * 7 mod 40)) (Char.chr (97 + i))) in
  QCheck.Test.make ~name:"lookup, readdir and fsck agree with two-load reads" ~count:25
    QCheck.(list_of_size (Gen.int_range 0 60) (pair (int_range 0 23) bool))
    (fun ops ->
      let e, fs = make_fs ~dir_hash_bits:1 simple 7 in
      let root = Fs.root_ino fs in
      List.iter
        (fun (i, add) ->
          let present = Fs.lookup fs ~dir:root pool.(i) <> None in
          if add && not present then ignore (Fs.create fs ~dir:root pool.(i))
          else if present && not add then Fs.unlink fs ~dir:root pool.(i))
        ops;
      let want = two_load_entries e fs root in
      List.sort compare (Fs.readdir fs ~dir:root) = want
      && Array.for_all
           (fun n -> Fs.lookup fs ~dir:root n = List.assoc_opt n want)
           pool
      && Fs_check.fsck fs = Ok ())

(* --- barrier budget ------------------------------------------------------------ *)

(* Plan-then-apply: every operation declares its whole write set before its
   first write, so on kamino-simple with the applier drained (no lock has a
   queued task to catch up) each costs exactly three critical-path fences:
   the intent-log barrier, the data persist and the commit mark. The trees
   stay small enough that no B+Tree split or merge happens. *)
let test_fence_budget () =
  let e, fs = make_fs ~block_size:64 ~dir_hash_bits:40 simple 31 in
  let root = Fs.root_ino fs in
  let three what f =
    Engine.drain_backup e;
    let before = (Engine.main_counters e).Region.fences in
    let r = f () in
    Alcotest.(check int) (what ^ ": fences") 3 ((Engine.main_counters e).Region.fences - before);
    r
  in
  let d = three "mkdir" (fun () -> Fs.mkdir fs ~dir:root "d") in
  let f = three "create" (fun () -> Fs.create fs ~dir:d "f") in
  three "write (growing)" (fun () -> Fs.write fs ~ino:f ~off:0 "hello");
  three "write (in place)" (fun () -> Fs.write fs ~ino:f ~off:1 "ELL");
  three "link" (fun () -> Fs.link fs ~ino:f ~dir:root "hard");
  three "truncate (grow)" (fun () -> Fs.truncate fs ~ino:f ~len:200);
  three "truncate (shrink)" (fun () -> Fs.truncate fs ~ino:f ~len:10);
  Alcotest.(check string) "content" ("hELLo" ^ String.make 5 '\000')
    (Fs.read fs ~ino:f ~off:0 ~len:100);
  three "unlink (one of two links)" (fun () -> Fs.unlink fs ~dir:root "hard");
  three "unlink (last link)" (fun () -> Fs.unlink fs ~dir:d "f");
  three "rmdir" (fun () -> Fs.rmdir fs ~dir:root "d");
  check_fsck fs "after the budgeted ops"

(* [rename] may keep more than one barrier: it still declares some of its
   objects as it finds them. Its counts are pinned so they cannot grow; the
   declare-per-object pattern cost 7, 10 and 15 fences on these three. *)
let test_rename_fences () =
  let e, fs = make_fs ~block_size:64 ~dir_hash_bits:40 simple 31 in
  let root = Fs.root_ino fs in
  let d = Fs.mkdir fs ~dir:root "d" in
  ignore (Fs.create fs ~dir:root "a");
  ignore (Fs.create fs ~dir:root "victim");
  let fences what n f =
    Engine.drain_backup e;
    let before = (Engine.main_counters e).Region.fences in
    f ();
    Alcotest.(check int) (what ^ ": fences") n ((Engine.main_counters e).Region.fences - before)
  in
  fences "rename in one directory" 4 (fun () ->
      Fs.rename fs ~src:root ~src_name:"a" ~dst:root ~dst_name:"b");
  fences "rename across directories" 5 (fun () ->
      Fs.rename fs ~src:root ~src_name:"b" ~dst:d ~dst_name:"c");
  fences "rename over an existing file" 6 (fun () ->
      Fs.rename fs ~src:d ~src_name:"c" ~dst:root ~dst_name:"victim");
  Alcotest.(check (list string)) "root entries" [ "d"; "victim" ]
    (List.sort compare (List.map fst (Fs.readdir fs ~dir:root)));
  Alcotest.(check (list string)) "d is empty" [] (List.map fst (Fs.readdir fs ~dir:d));
  check_fsck fs "after renames"

(* --- deterministic crash sweeps --------------------------------------------- *)

(* Sweeps rebuild their engine at every crash point: small regions keep
   that cheap. *)
let sweep_config =
  { config with Engine.heap_bytes = 1 lsl 18; log_slots = 16; max_tx_entries = 512; data_log_bytes = 1 lsl 18 }

let crash_modes =
  [ Region.Words_survive_randomly; Region.Lines_survive_randomly; Region.Drop_unflushed ]

(* A canonical listing of a namespace — every entry with its inode's
   fields and every file's bytes — for before/after comparison, over [Fs]
   and [Shard_fs] alike. *)
let fs_view ~root ~readdir ~stat ~read =
  let buf = Buffer.create 512 in
  let rec walk path dir =
    List.iter
      (fun (name, ino) ->
        let st : Fs.stat = stat ino in
        Printf.bprintf buf "%s/%s ino=%d nlink=%d size=%d gen=%d parent=%d" path name
          ino st.nlink st.size st.gen st.parent;
        match st.kind with
        | Fs.Dir ->
            Buffer.add_char buf '\n';
            walk (path ^ "/" ^ name) ino
        | Fs.File -> Printf.bprintf buf " %S\n" (read ino st.size))
      (List.sort compare (readdir dir))
  in
  walk "" root;
  Buffer.contents buf

(* Sweep every fence of [op] (plus the applier drain) on a fresh
   [setup ()], crashes inside recovery included; each crash must recover
   to exactly the before- or after-state with fsck, the heap and the
   backup clean. *)
let fs_sweep ~ctx ~setup ?on_crash op =
  Fence_sweep.sweep ~ctx ~setup
    ~crash:(fun (e, _) -> Engine.crash e)
    ~recover:(fun (e, _) -> Engine.recover e)
    ~op:(fun (_, fs) -> op fs)
    ~drain:(fun (e, _) -> Engine.drain_backup e)
    ~observe:(fun (_, fs) ->
      fs_view ~root:(Fs.root_ino fs) ~readdir:(fun dir -> Fs.readdir fs ~dir)
        ~stat:(Fs.stat fs) ~read:(fun ino len -> Fs.read fs ~ino ~off:0 ~len))
    ~check:(fun (e, fs) here ->
      check_fsck fs here;
      Tx_model.check_engine e here)
    ?on_crash ()

let content = String.init 300 (fun i -> Char.chr (33 + (i mod 90)))

(* The swept operations, each run from the same seeded base state (its
   commits left queued for the applier, so the swept drain retires a
   whole batch): [(name, fewest crash points the sweep must reach, op)]. *)
let swept_ops =
  let ino fs path = Option.get (Fs.resolve fs path) in
  [
    ("create", 2, fun fs -> ignore (Fs.create fs ~dir:(Fs.root_ino fs) "new"));
    ("mkdir", 2, fun fs -> ignore (Fs.mkdir fs ~dir:(Fs.root_ino fs) "fresh"));
    ("write", 3, fun fs -> Fs.write fs ~ino:(ino fs "/a/x") ~off:700 content);
    ( "rename",
      3,
      fun fs -> Fs.rename fs ~src:(ino fs "/a") ~src_name:"x" ~dst:(ino fs "/b") ~dst_name:"y" );
    ("truncate-shrink", 4, fun fs -> Fs.truncate fs ~ino:(ino fs "/a/x") ~len:10);
    ("truncate-grow", 2, fun fs -> Fs.truncate fs ~ino:(ino fs "/a/x") ~len:500);
    ("unlink", 3, fun fs -> Fs.unlink fs ~dir:(ino fs "/a") "x");
    ( "rename-clobber",
      6,
      fun fs ->
        Fs.rename fs ~src:(ino fs "/a") ~src_name:"src" ~dst:(ino fs "/b") ~dst_name:"dst" );
    ("rmdir", 1, fun fs -> Fs.rmdir fs ~dir:(Fs.root_ino fs) "e");
    (* The seams of block addressing: block 0 in the inode, the first
       chain node, and back. *)
    ("write-into-empty", 3, fun fs -> Fs.write fs ~ino:(ino fs "/b/empty") ~off:0 "FIRST");
    ("write-grow-1-to-2", 3, fun fs -> Fs.write fs ~ino:(ino fs "/a/src") ~off:60 "SPILLS");
    ("truncate-to-0", 4, fun fs -> Fs.truncate fs ~ino:(ino fs "/a/x") ~len:0);
    ("unlink-1-block", 3, fun fs -> Fs.unlink fs ~dir:(ino fs "/a") "src");
  ]

let fs_base spec crash_mode () =
  let e, fs =
    make_fs ~config:{ sweep_config with Engine.crash_mode } ~block_size:64 ~dir_hash_bits:2 spec 7
  in
  let root = Fs.root_ino fs in
  let da = Fs.mkdir fs ~dir:root "a" in
  let db = Fs.mkdir fs ~dir:root "b" in
  ignore (Fs.mkdir fs ~dir:root "e");
  let f = Fs.create fs ~dir:da "x" in
  Fs.write fs ~ino:f ~off:0 content;
  Fs.write fs ~ino:(Fs.create fs ~dir:da "src") ~off:0 "SOURCE";
  Fs.write fs ~ino:(Fs.create fs ~dir:db "dst") ~off:0 "TARGET";
  ignore (Fs.create fs ~dir:db "empty");
  (e, fs)

(* On kinds with an applier the drain after a committed op has fences of
   its own, each of which must keep the op. *)
let test_crash_every_step (name, spec, atomic) () =
  if atomic then begin
    let has_applier =
      Option.is_some (Engine.applier (fst (fs_base spec Region.Drop_unflushed ())))
    in
    List.iter
      (fun crash_mode ->
        List.iter
          (fun (op_name, min_points, op) ->
            let ctx = Printf.sprintf "%s/%s" name op_name in
            let st = fs_sweep ~ctx ~setup:(fs_base spec crash_mode) op in
            if st.Fence_sweep.points < min_points then
              Alcotest.failf "%s: %d crash points, fewer than %d" ctx st.Fence_sweep.points
                min_points;
            if has_applier && st.Fence_sweep.committed = 0 then
              Alcotest.failf "%s: no crash point after the op returned" ctx;
            Fence_sweep.require_split ~ctx st)
          swept_ops)
      crash_modes
  end

let crash_recover_check e fs ctx =
  Engine.crash e;
  Engine.recover e;
  check_fsck fs ctx

(* No_logging only promises durability at operation boundaries; crash
   there, everywhere. *)
let test_no_logging_boundaries () =
  let e, fs = make_fs ~block_size:64 ~dir_hash_bits:2 (Tx_model.Plain Engine.No_logging) 8 in
  let root = Fs.root_ino fs in
  let d = Fs.mkdir fs ~dir:root "d" in
  crash_recover_check e fs "no-logging after mkdir";
  let f = Fs.create fs ~dir:d "f" in
  crash_recover_check e fs "no-logging after create";
  Fs.write fs ~ino:f ~off:0 "persisted";
  crash_recover_check e fs "no-logging after write";
  Alcotest.(check string) "content survives" "persisted" (Fs.read fs ~ino:f ~off:0 ~len:100);
  Fs.rename fs ~src:d ~src_name:"f" ~dst:root ~dst_name:"g";
  crash_recover_check e fs "no-logging after rename";
  Alcotest.(check (option int)) "rename survives" (Some f) (Fs.lookup fs ~dir:root "g");
  Fs.unlink fs ~dir:root "g";
  Fs.rmdir fs ~dir:root "d";
  crash_recover_check e fs "no-logging after teardown";
  Alcotest.(check (list string)) "empty" [] (List.map fst (Fs.readdir fs ~dir:root))

(* The headline atomicity property: at every crash point of a rename,
   recovery's own included, the file is in exactly one of the two
   directories — never both, never neither — and its content is intact.
   Where the rename survived, renaming it back must work on the
   recovered fs. *)
let test_rename_atomicity (name, spec, atomic) () =
  if atomic then begin
    let setup () =
      let e, fs = make_fs ~config:sweep_config ~block_size:64 ~dir_hash_bits:2 spec 9 in
      let root = Fs.root_ino fs in
      let da = Fs.mkdir fs ~dir:root "a" in
      ignore (Fs.mkdir fs ~dir:root "b");
      Fs.write fs ~ino:(Fs.create fs ~dir:da "x") ~off:0 "payload";
      (e, fs)
    in
    let where fs = (Fs.resolve fs "/a/x", Fs.resolve fs "/b/y") in
    let f = Option.get (fst (where (snd (setup ())))) in
    let st =
      fs_sweep ~ctx:(name ^ "/rename-atomicity") ~setup
        ~on_crash:(fun (_, fs) k ->
          (match where fs with
          | Some i, None | None, Some i when i = f -> ()
          | Some _, Some _ -> Alcotest.failf "%s crash at %d: file in BOTH directories" name k
          | None, None -> Alcotest.failf "%s crash at %d: file in NEITHER directory" name k
          | _ -> Alcotest.failf "%s crash at %d: entry points at a stranger" name k);
          Alcotest.(check string)
            (Printf.sprintf "%s crash at %d: payload intact" name k)
            "payload"
            (Fs.read fs ~ino:f ~off:0 ~len:100);
          if snd (where fs) <> None then begin
            Fs.rename fs ~src:(Option.get (Fs.resolve fs "/b")) ~src_name:"y"
              ~dst:(Option.get (Fs.resolve fs "/a")) ~dst_name:"x";
            Alcotest.(check bool)
              (Printf.sprintf "%s crash at %d: renamed back" name k)
              true
              (where fs = (Some f, None));
            check_fsck fs (Printf.sprintf "%s crash at %d: after the reverse rename" name k)
          end)
        (fun fs ->
          Fs.rename fs ~src:(Option.get (Fs.resolve fs "/a")) ~src_name:"x"
            ~dst:(Option.get (Fs.resolve fs "/b")) ~dst_name:"y")
    in
    Alcotest.(check bool) (name ^ ": sweep hit several crash points") true
      (st.Fence_sweep.points >= 3)
  end

(* --- the sharded façade ------------------------------------------------------ *)

let test_sharded_basic () =
  let t = Shard_fs.create ~block_size:64 ~dir_hash_bits:2 ~kind:Engine.Kamino_simple
      ~seed:11 ~shards:3 () in
  let root = Shard_fs.root_ino t in
  let names = List.init 12 (Printf.sprintf "n%02d") in
  let files = List.map (fun n -> (n, Shard_fs.create_file t ~dir:root n)) names in
  (* The placement rule must actually spread inodes across shards. *)
  let shards_used =
    List.sort_uniq compare (List.map (fun (_, i) -> Shard_fs.owner t i) files)
  in
  Alcotest.(check bool) "placement spreads across shards" true
    (List.length shards_used >= 2);
  List.iter
    (fun (n, i) ->
      Alcotest.(check (option int)) ("lookup " ^ n) (Some i) (Shard_fs.lookup t ~dir:root n);
      Shard_fs.write t ~ino:i ~off:0 ("content of " ^ n);
      Alcotest.(check string) ("read " ^ n) ("content of " ^ n)
        (Shard_fs.read t ~ino:i ~off:0 ~len:100))
    files;
  Alcotest.(check int) "readdir sees all" 12 (List.length (Shard_fs.readdir t ~dir:root));
  check_fsck_cluster (Shard_fs.fss t) "sharded populated";
  (* Directories too, with nesting across shards. *)
  let d1 = Shard_fs.mkdir t ~dir:root "dir1" in
  let d2 = Shard_fs.mkdir t ~dir:d1 "dir2" in
  let fx = Shard_fs.create_file t ~dir:d2 "deep" in
  Alcotest.(check (option int)) "resolve across shards" (Some fx)
    (Shard_fs.resolve t "/dir1/dir2/deep");
  (* Cross-shard rename, link, unlink, rmdir. *)
  let n0, f0 = List.hd files in
  Shard_fs.rename t ~src:root ~src_name:n0 ~dst:d2 ~dst_name:"moved";
  Alcotest.(check (option int)) "cross-shard rename" (Some f0)
    (Shard_fs.lookup t ~dir:d2 "moved");
  Alcotest.(check string) "content follows" ("content of " ^ n0)
    (Shard_fs.read t ~ino:f0 ~off:0 ~len:100);
  Shard_fs.link t ~ino:f0 ~dir:root "hard";
  Alcotest.(check int) "cross-shard link" 2 (Shard_fs.stat t f0).Fs.nlink;
  List.iter
    (fun dir ->
      Alcotest.(check int) "dir size is its readdir length"
        (List.length (Shard_fs.readdir t ~dir))
        (Shard_fs.stat t dir).Fs.size)
    [ root; d1; d2 ];
  Alcotest.(check bool) "sharded rmdir refuses a non-empty directory" true
    (expect_error (fun () -> Shard_fs.rmdir t ~dir:d1 "dir2"));
  Shard_fs.unlink t ~dir:root "hard";
  Shard_fs.unlink t ~dir:d2 "moved";
  Shard_fs.unlink t ~dir:d2 "deep";
  Shard_fs.rmdir t ~dir:d1 "dir2";
  Shard_fs.rmdir t ~dir:root "dir1";
  check_fsck_cluster (Shard_fs.fss t) "sharded after teardown";
  (* Crash and recover the whole cluster; everything must still verify. *)
  Shard_fs.crash t;
  Shard_fs.recover t;
  check_fsck_cluster (Shard_fs.fss t) "sharded post-crash";
  List.iter
    (fun (n, i) ->
      if n <> n0 then
        Alcotest.(check (option int)) ("survives " ^ n) (Some i)
          (Shard_fs.lookup t ~dir:root n))
    files;
  Shard_fs.drain_backups t;
  match Shard.verify_backups (Shard_fs.shard t) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "sharded backups: %s" e

let shard_fs_view t =
  fs_view ~root:(Shard_fs.root_ino t)
    ~readdir:(fun dir -> Shard_fs.readdir t ~dir)
    ~stat:(Shard_fs.stat t)
    ~read:(fun ino len -> Shard_fs.read t ~ino ~off:0 ~len)

(* [fs_sweep] over a shard set: fences are counted across every shard and
   the commit-marker region, so the sweep walks the fs mutations and the
   2PC protocol alike. Before the marker's valid flag is durable every
   shard must roll back, from then on every shard rolls forward — the
   before/after oracle admits no mixed outcome. *)
let shard_fs_sweep ~ctx ~setup op =
  Fence_sweep.sweep ~ctx ~setup ~crash:Shard_fs.crash ~recover:Shard_fs.recover
    ~op ~drain:Shard_fs.drain_backups
    ~observe:shard_fs_view
    ~check:(fun t here ->
      check_fsck_cluster (Shard_fs.fss t) here;
      (match Shard.verify_backups (Shard_fs.shard t) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: backups: %s" here e);
      Alcotest.(check bool) (here ^ ": marker retired") true
        (Commit_marker.read (Shard.marker (Shard_fs.shard t)) = None))
    ()

(* Cross-shard renames, crashed at every fence. *)
let test_sharded_rename_sweep () =
  let setup () =
    let t = Shard_fs.create ~config:sweep_config ~block_size:64 ~dir_hash_bits:2 ~kind:Engine.Kamino_simple
        ~seed:13 ~shards:3 () in
    let root = Shard_fs.root_ino t in
    (* Hunt for two directories on different shards. *)
    let rec pick_dirs i =
      if i > 50 then Alcotest.fail "no cross-shard directory pair found"
      else
        let a = Shard_fs.mkdir t ~dir:root (Printf.sprintf "pa%d" i) in
        let b = Shard_fs.mkdir t ~dir:root (Printf.sprintf "pb%d" i) in
        if Shard_fs.owner t a <> Shard_fs.owner t b then (a, b) else pick_dirs (i + 1)
    in
    let da, db = pick_dirs 0 in
    Shard_fs.write t ~ino:(Shard_fs.create_file t ~dir:da "x") ~off:0 "payload";
    (t, da, db)
  in
  let _, da, db = setup () in
  let st =
    shard_fs_sweep ~ctx:"sharded rename"
      ~setup:(fun () ->
        let t, _, _ = setup () in
        t)
      (fun t -> Shard_fs.rename t ~src:da ~src_name:"x" ~dst:db ~dst_name:"y")
  in
  (* The sweep must have walked clean through the protocol tail: crash
     points from the marker's valid flag on roll forward. *)
  Alcotest.(check bool) "post-marker crash points covered" true (st.Fence_sweep.after >= 2);
  Alcotest.(check bool) "sweep hit many crash points" true (st.Fence_sweep.points >= 6)

(* Cross-shard create and unlink, swept the same way. *)
let test_sharded_create_unlink_sweep () =
  let fresh () =
    Shard_fs.create ~config:sweep_config ~block_size:64 ~dir_hash_bits:2 ~kind:Engine.Kamino_simple ~seed:17
      ~shards:2 ()
  in
  let t0 = fresh () in
  let root = Shard_fs.root_ino t0 in
  (* A name whose placement lands on the other shard than the root dir. *)
  let rec pick_name i =
    if i > 200 then Alcotest.fail "no cross-shard name found"
    else
      let n = Printf.sprintf "x%d" i in
      if (Fs.name_hash_raw n + root) mod 2 <> Shard_fs.owner t0 root then n
      else pick_name (i + 1)
  in
  let name = pick_name 0 in
  let create t = Shard_fs.create_file t ~dir:root name in
  let st = shard_fs_sweep ~ctx:"sharded create" ~setup:fresh (fun t -> ignore (create t)) in
  Alcotest.(check bool) "create: post-marker crash points covered" true
    (st.Fence_sweep.after >= 1);
  let f = create t0 in
  Alcotest.(check bool) "created on the foreign shard" true
    (Shard_fs.owner t0 f <> Shard_fs.owner t0 root);
  let with_file () =
    let t = fresh () in
    Shard_fs.write t ~ino:(create t) ~off:0 "doomed";
    t
  in
  let st =
    shard_fs_sweep ~ctx:"sharded unlink" ~setup:with_file (fun t ->
        Shard_fs.unlink t ~dir:root name)
  in
  Alcotest.(check bool) "unlink: post-marker crash points covered" true
    (st.Fence_sweep.after >= 1)

(* --- observability ----------------------------------------------------------- *)

(* A deterministic seeded workload: same seed, same trace bytes. *)
let run_obs_workload ?obs () =
  let e = Engine.create ~config ?obs ~kind:Engine.Kamino_simple ~seed:19 () in
  let fs = Fs.format ~block_size:128 ~dir_hash_bits:3 e in
  let root = Fs.root_ino fs in
  let rng = Rng.create 23 in
  let dirs = ref [ root ] in
  let files = ref [] in
  for round = 1 to 120 do
    let dir = List.nth !dirs (Rng.int rng (List.length !dirs)) in
    (match Rng.int rng 8 with
    | 0 -> dirs := Fs.mkdir fs ~dir (Printf.sprintf "d%d" round) :: !dirs
    | 1 | 2 ->
        let f = Fs.create fs ~dir (Printf.sprintf "f%d" round) in
        files := (f, dir, Printf.sprintf "f%d" round) :: !files
    | 3 | 4 -> (
        match !files with
        | [] -> ()
        | (f, _, _) :: _ ->
            Fs.write fs ~ino:f ~off:(Rng.int rng 256) (Printf.sprintf "data%d" round))
    | 5 -> (
        match !files with
        | [] -> ()
        | (f, _, _) :: _ -> Fs.truncate fs ~ino:f ~len:(Rng.int rng 300))
    | 6 -> (
        match !files with
        | [] -> ()
        | (f, d, n) :: rest ->
            let n' = n ^ "r" in
            Fs.rename fs ~src:d ~src_name:n ~dst:root ~dst_name:n';
            files := (f, root, n') :: rest)
    | _ -> ignore (Fs.readdir fs ~dir));
    if round mod 40 = 0 then
      match Fs_check.fsck fs with
      | Ok () -> ()
      | Error err -> Alcotest.failf "obs workload round %d: %s" round err
  done;
  Engine.drain_backup e;
  (e, fs)

let test_fs_trace_deterministic () =
  let trace () =
    let obs = Obs.create ~capacity:65536 () in
    let _ = run_obs_workload ~obs () in
    (obs, Sink.perfetto_string obs)
  in
  let oa, a = trace () in
  let _, b = trace () in
  Alcotest.(check bool) "byte-identical fs trace for the same seed" true (a = b);
  (* fs spans ride their own dedicated track, and only that track. *)
  let fs_spans = ref 0 and fs_tracks = ref [] and ops_seen = ref [] in
  Obs.iter oa (fun ~kind ~track ~ts:_ ~dur ~a ~b:_ ~c:_ ->
      if kind = Obs.k_fs_op then begin
        incr fs_spans;
        if not (List.mem track !fs_tracks) then fs_tracks := track :: !fs_tracks;
        if not (List.mem a !ops_seen) then ops_seen := a :: !ops_seen;
        if dur < 0 then Alcotest.fail "negative fs span duration"
      end);
  Alcotest.(check bool) "fs spans recorded" true (!fs_spans > 100);
  Alcotest.(check (list int)) "all fs spans on the dedicated track" [ 4 ] !fs_tracks;
  Alcotest.(check bool) "several distinct opcodes traced" true
    (List.length !ops_seen >= 5);
  Alcotest.(check bool) "track is named" true
    (List.mem_assoc 4 (Obs.tracks oa))

let test_fs_tracing_invisible () =
  let fingerprint (e, _) = (Engine.now e, Engine.metrics e, Engine.main_counters e) in
  let plain = run_obs_workload () in
  let obs = Obs.create ~capacity:65536 () in
  let traced = run_obs_workload ~obs () in
  Alcotest.(check bool) "tracer saw the run" true (Obs.total obs > 0);
  Alcotest.(check bool) "tracing changes nothing" true
    (fingerprint plain = fingerprint traced)

let test_fs_metrics () =
  let e, fs = run_obs_workload () in
  let reg = Engine.registry e in
  let counter name =
    Metrics.fold_counters reg ~init:0 ~f:(fun acc n v -> if n = name then v else acc)
  in
  Alcotest.(check bool) "blocks allocated counted" true
    (counter "fs.blocks_allocated" > 0);
  Alcotest.(check bool) "extent nodes counted" true
    (counter "fs.extent_nodes_allocated" > 0);
  let h = Metrics.hist reg ("fs.op_ns." ^ Fs.op_name Fs.op_create) in
  Alcotest.(check bool) "create latencies observed" true (Metrics.count h > 0);
  Alcotest.(check bool) "percentiles monotone" true
    (Metrics.percentile h 50.0 <= Metrics.percentile h 99.0);
  let hf = Metrics.hist reg ("fs.op_ns." ^ Fs.op_name Fs.op_fsck) in
  Alcotest.(check bool) "fsck feeds its histogram" true (Metrics.count hf > 0);
  ignore fs

let () =
  let sweep_cases =
    List.filter_map
      (fun ((name, _, atomic) as b) ->
        if atomic then
          Some
            (Alcotest.test_case
               (Printf.sprintf "crash at every step (%s)" name)
               `Slow (test_crash_every_step b))
        else None)
      Tx_model.kinds
  in
  let atomicity_cases =
    List.filter_map
      (fun ((name, _, atomic) as b) ->
        if atomic then
          Some
            (Alcotest.test_case
               (Printf.sprintf "rename all-or-nothing (%s)" name)
               `Quick (test_rename_atomicity b))
        else None)
      Tx_model.kinds
  in
  Alcotest.run "fs"
    [
      ( "functional",
        [
          Alcotest.test_case "tree of ops" `Quick test_tree_ops;
          Alcotest.test_case "error paths" `Quick test_errors;
          Alcotest.test_case "collision chains" `Quick test_collision_chains;
          Alcotest.test_case "three fences per operation" `Quick test_fence_budget;
          Alcotest.test_case "rename fence counts" `Quick test_rename_fences;
        ] );
      ( "derived words",
        [
          Alcotest.test_case "inode cursor after a crash" `Quick test_cursor_after_crash;
          Alcotest.test_case "two handles create in turn" `Quick test_two_handles;
          Alcotest.test_case "directory size is its readdir length" `Quick test_dir_size;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "fsck detects planted corruption" `Quick
            test_fsck_detects_corruption;
          Alcotest.test_case "attach checks every superblock word" `Quick
            test_attach_checks_superblock;
          Alcotest.test_case "attach refuses a version-1 image" `Quick
            test_attach_refuses_version_1;
        ] );
      ( "block addressing",
        [ Alcotest.test_case "objects per create, write and unlink" `Quick test_object_counts ]
      );
      ( "names",
        [
          Alcotest.test_case "a name read straddling a CoW copy" `Quick
            test_name_read_straddles_cow;
        ] );
      ("crash-sweep", sweep_cases);
      ( "crash-boundary",
        [
          Alcotest.test_case "no-logging at operation boundaries" `Quick
            test_no_logging_boundaries;
        ] );
      ("rename-atomicity", atomicity_cases);
      ( "sharded",
        [
          Alcotest.test_case "basic namespace over shards" `Quick test_sharded_basic;
          Alcotest.test_case "cross-shard rename crash sweep" `Slow
            test_sharded_rename_sweep;
          Alcotest.test_case "cross-shard create/unlink crash sweep" `Slow
            test_sharded_create_unlink_sweep;
        ] );
      ( "observability",
        [
          Alcotest.test_case "trace determinism" `Quick test_fs_trace_deterministic;
          Alcotest.test_case "tracing invisible to the simulation" `Quick
            test_fs_tracing_invisible;
          Alcotest.test_case "metrics registry wiring" `Quick test_fs_metrics;
        ] );
      ( "qcheck",
        QCheck_alcotest.to_alcotest names_qcheck
        :: List.map
             (fun b -> QCheck_alcotest.to_alcotest (block_seams_qcheck b))
             (List.filter_map
                (fun (name, spec, _) ->
                  if List.mem name [ "kamino-simple"; "undo"; "cow" ] then Some (name, spec)
                  else None)
                Tx_model.kinds) );
    ]
