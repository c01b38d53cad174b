(* fs-smallfile: create / write / read / unlink cycles over directories of
   preloaded files, one client. Every cycle is four multi-object
   transactions touching the inode table, a directory B+Tree and the block
   allocator. Reads are checked against the payload written; fsck and the
   preloaded files' contents are checked around the crash and at the end. *)

module Engine = Kamino_core.Engine
module Intent_log = Kamino_core.Intent_log
module Rng = Kamino_sim.Rng
module Fs = Kamino_fs.Fs
module Fs_check = Kamino_fs.Fs_check
module Btree = Kamino_index.Btree

let dirs = 64

let names = 64

let payload_len = 100

let classes = [| "fs.create"; "fs.write"; "fs.read"; "fs.unlink" |]

(* Cycles per wall-window chunk. *)
let chunk_cycles = 16

let config =
  {
    Engine.default_config with
    Engine.heap_bytes = 32 * 1024 * 1024;
    log_slots = 256;
    max_tx_entries = 8192;
  }

(* One cycle per index: directory, file name and payload version. *)
type stream = { dir : int array; name : int array; ver : int array }

let generate ~cycles ~seed =
  let rng = Rng.create seed in
  let dir = Array.make cycles 0 and name = Array.make cycles 0 and ver = Array.make cycles 0 in
  for c = 0 to cycles - 1 do
    dir.(c) <- Rng.int rng dirs;
    name.(c) <- Rng.int rng names;
    ver.(c) <- Rng.int rng 256
  done;
  { dir; name; ver }

type st = {
  e : Engine.t;
  mutable fs : Fs.t;
  s : stream;
  pool : string array;
  dir_inos : int array;
  names : string array;
  preloaded : int array;  (* ino of preloaded file [j] *)
  pre_ver : int array;  (* mirror: payload version of preloaded file [j] *)
  mutable ino : int;  (* the current cycle's file *)
  mutable cursor : int;
  checks : Workload.checks;
  mutable layers : (string * float) list;
}

(* Operation [j] of cycle [c]. *)
let exec st c j =
  let dir = st.dir_inos.(st.s.dir.(c)) and name = st.names.(st.s.name.(c)) in
  try
    match j with
    | 0 -> st.ino <- Fs.create st.fs ~dir name
    | 1 -> Fs.write st.fs ~ino:st.ino ~off:0 st.pool.(st.s.ver.(c))
    | 2 ->
        if
          not
            (String.equal
               (Fs.read st.fs ~ino:st.ino ~off:0 ~len:payload_len)
               st.pool.(st.s.ver.(c)))
        then Workload.fail st.checks
    | _ -> Fs.unlink st.fs ~dir name
  with Fs.Fs_error _ -> Workload.fail st.checks

let check_fs st where =
  Workload.oracle st.checks (where ^ ": fsck") (Fs_check.fsck st.fs);
  let bad = ref 0 in
  Array.iteri
    (fun j ino ->
      match Fs.read st.fs ~ino ~off:0 ~len:payload_len with
      | v when String.equal v st.pool.(st.pre_ver.(j)) -> ()
      | _ | (exception Fs.Fs_error _) -> incr bad)
    st.preloaded;
  if !bad > 0 then
    Workload.error st.checks
      (Printf.sprintf "%s: %d of %d preloaded files differ" where !bad (Array.length st.preloaded))

let window st probe =
  let cycles = Array.length st.s.dir in
  let n = 4 * cycles in
  let lat = Array.make n 0 in
  let il = Engine.intent_log st.e in
  let start = Engine.now st.e in
  let a = Workload.totals [ st.e ] in
  let (), words, wall_s, (minor_gcs, major_gcs, promoted_words) =
    Workload.metered (fun () ->
        for c = 0 to cycles - 1 do
          for j = 0 to 3 do
            let t0 = Engine.now st.e in
            match probe with
            | None ->
                exec st c j;
                lat.((4 * c) + j) <- Engine.now st.e - t0
            | Some p ->
                let w0 = Wall.now () in
                exec st c j;
                let w1 = Wall.now () in
                let t1 = Engine.now st.e in
                lat.((4 * c) + j) <- t1 - t0;
                Probe.op p ~cls:j ~t0 ~t1 ~w0 ~w1;
                Option.iter (fun il -> Probe.free_slots p (Intent_log.free_slots il)) il
          done
        done)
  in
  let sim_ns = Engine.now st.e - start in
  let b = Workload.totals [ st.e ] in
  let sb = Fs.superblock st.fs in
  st.layers <-
    Workload.engine_layers ~ops:n [ st.e ] a b
    @ Workload.class_percentiles classes lat ~cls_of:(fun i -> i mod 4)
    @ [
        ( "fs.blocks_allocated",
          float_of_int (Engine.probe_int st.e sb Fs.Layout.sb_block_count) );
        ("index.depth", float_of_int (Btree.depth (Fs.itab st.fs)));
      ]
    @ (match probe with None -> [] | Some p -> Probe.metrics p ~ops:n ~sim_ns);
  {
    Workload.ops = n;
    sim_ns;
    lat;
    is_write = (fun i -> i mod 4 <> 2);
    nvm_write_bytes = Workload.nvm_writes b - Workload.nvm_writes a;
    user_bytes = cycles * payload_len;
    storage_bytes = Engine.storage_bytes st.e;
    live_user_bytes = Array.length st.preloaded * payload_len;
    words;
    wall_s;
    minor_gcs;
    major_gcs;
    promoted_words;
  }

(* fsck, then crash with a create + write in flight, recover, reattach,
   and check that fsck passes, the in-flight file is gone and every
   preloaded file is intact. *)
let crash_recover st probe =
  let phase name f = Workload.phase probe name ~now:(fun () -> Engine.now st.e) f in
  Workload.oracle st.checks "before the crash: fsck" (Fs_check.fsck st.fs);
  let dir = st.dir_inos.(0) in
  let tx = Engine.begin_tx st.e in
  let ino = Fs.create_tx tx st.fs ~dir "inflight" in
  Fs.write_tx tx st.fs ~ino ~off:0 st.pool.(0);
  let (), crash_wall_s = phase "crash" (fun () -> Engine.crash st.e) in
  let t0 = Engine.now st.e in
  let (), recover_wall_s = phase "recover" (fun () -> Engine.recover st.e) in
  let sim_ns = Engine.now st.e - t0 in
  let (), oracle_wall_s =
    phase "oracle" (fun () ->
        st.fs <- Fs.attach st.e;
        check_fs st "after recovery";
        if Fs.lookup st.fs ~dir "inflight" <> None then
          Workload.error st.checks "after recovery: the uncommitted file survived")
  in
  Some { Workload.sim_ns; crash_wall_s; recover_wall_s; oracle_wall_s }

let chunk st () =
  let cycles = Array.length st.s.dir in
  for _ = 1 to chunk_cycles do
    for j = 0 to 3 do
      exec st st.cursor j
    done;
    st.cursor <- (st.cursor + 1) mod cycles
  done;
  4 * chunk_cycles

let setup ~preload s ~checks ~plant probe =
  let pool = Workload.pool ~len:payload_len in
  let obs = Option.map Probe.obs probe in
  let (e, fs), create_s =
    Workload.phase probe "setup.create" ~now:(fun () -> 0) (fun () ->
        let e = Engine.create ~config ?obs ~kind:Engine.Kamino_simple ~seed:90210 () in
        (e, Fs.format ~block_size:512 e))
  in
  let (dir_inos, preloaded), load_s =
    Workload.phase probe "setup.load" ~now:(fun () -> Engine.now e) (fun () ->
        let root = Fs.root_ino fs in
        let dir_inos = Array.init dirs (fun i -> Fs.mkdir fs ~dir:root (Printf.sprintf "d%02d" i)) in
        let preloaded =
          Array.init preload (fun j ->
              let ino = Fs.create fs ~dir:dir_inos.(j mod dirs) (Printf.sprintf "p%d" j) in
              Fs.write fs ~ino ~off:0 pool.(j land 255);
              ino)
        in
        Engine.drain_backup e;
        (dir_inos, preloaded))
  in
  let pre_ver = Array.init preload (fun j -> j land 255) in
  (* The oracle's own test plants a lie in one preloaded file's mirror. *)
  if plant then pre_ver.(0) <- (pre_ver.(0) + 1) land 255;
  let st =
    {
      e;
      fs;
      s;
      pool;
      dir_inos;
      names = Array.init names (Printf.sprintf "n%d");
      preloaded;
      pre_ver;
      ino = -1;
      cursor = 0;
      checks;
      layers = [];
    }
  in
  {
    Workload.sim_now = (fun () -> Engine.now st.e);
    create_s;
    load_s;
    window = (fun () -> window st probe);
    after_window = (fun () -> crash_recover st probe);
    chunk = chunk st;
    final_check = (fun () -> check_fs st "after the wall window");
    layers = (fun () -> st.layers);
  }

let make ~scale ~seed ~checks ~plant =
  let preload, cycles =
    match scale with Workload.Full -> (1024, 25_000) | Workload.Smoke -> (256, 1024)
  in
  let s = generate ~cycles ~seed in
  {
    Workload.name = "fs-smallfile";
    classes;
    records = preload;
    ops = 4 * cycles;
    setup = setup ~preload s ~checks ~plant;
  }
