(* Inode-routed sharded filesystem façade: one namespace over [n]
   Shard engines, shard [i] owning ino congruence class [(i, n)].
   Single-shard operations delegate to the plain [Fs] operations on the
   owning shard (bit-identical to a standalone engine); cross-shard
   operations decompose into the exported [Fs] transactional primitives,
   each run on its owning shard's transaction inside one
   [Shard.with_cross_tx] 2PC. *)

module Engine = Kamino_core.Engine
module Shard = Kamino_shard.Shard
module Obs = Kamino_obs.Obs

type t = { shard : Shard.t; fss : Fs.t array; n : int }

let err fmt = Printf.ksprintf (fun s -> raise (Fs.Fs_error s)) fmt

let create ?config ?obs ?(obs_track_base = 1) ?block_size ?dir_hash_bits
    ~kind ~seed ~shards () =
  if shards < 1 then invalid_arg "Shard_fs.create: shards < 1";
  let shard = Shard.create ?config ?obs ~obs_track_base ~kind ~seed ~shards () in
  let fss =
    Array.init shards (fun i ->
        let track = obs_track_base + (4 * i) + 3 in
        let fs =
          Fs.format ?block_size ?dir_hash_bits ~ino_base:i ~ino_stride:shards
            ~with_root:(i = 0) ~obs_track:track
            (Shard.engine shard i)
        in
        let ring = Engine.obs (Shard.engine shard i) in
        if Obs.enabled ring then
          Obs.name_track ring track (Printf.sprintf "shard%d.fs" i);
        fs)
  in
  { shard; fss; n = shards }

let shard t = t.shard
let fss t = t.fss

let owner t ino =
  if ino < 0 then err "Shard_fs: invalid ino %d" ino;
  ino mod t.n

let root_ino t = Fs.root_ino t.fss.(0)
let crash t = Shard.crash t.shard
let recover t = Shard.recover t.shard
let drain_backups t = Shard.drain_backups t.shard

(* Deterministic placement of a fresh inode: spread by parent and name
   so sibling creations fan out, with no volatile placement state. *)
let placement t ~dir name = (Fs.name_hash_raw name + dir) mod t.n

let record fs op ~t0 ~ino ~aux = Fs.record_op fs ~op ~t0 ~ino ~aux

(* -------------------------------------------------------------- *)
(* Single-shard reads                                              *)

let lookup t ~dir name = Fs.lookup t.fss.(owner t dir) ~dir name
let readdir t ~dir = Fs.readdir t.fss.(owner t dir) ~dir
let stat t ino = Fs.stat t.fss.(owner t ino) ino
let kind_of t ino = Fs.kind_of t.fss.(owner t ino) ino
let read t ~ino ~off ~len = Fs.read t.fss.(owner t ino) ~ino ~off ~len

let resolve t path =
  let root = root_ino t in
  let parts = List.filter (fun s -> s <> "") (String.split_on_char '/' path) in
  let rec go cur = function
    | [] -> Some cur
    | name :: rest -> (
        if kind_of t cur <> Fs.Dir then None
        else
          match lookup t ~dir:cur name with
          | None -> None
          | Some i -> go i rest)
  in
  go root parts

(* -------------------------------------------------------------- *)
(* A single-shard write (the owning shard's engine is a standalone
   engine, so the plain Fs operation — own transaction, span,
   histogram — is exactly right).                                  *)

let write t ~ino ~off data = Fs.write t.fss.(owner t ino) ~ino ~off data

(* -------------------------------------------------------------- *)
(* Namespace operations: cross-shard when the participating inodes
   land on different shards.                                       *)

let mk_generic knd op t ~dir name =
  Fs.check_name name;
  let p = owner t dir in
  let c = placement t ~dir name in
  if p = c then
    match knd with
    | Fs.File -> Fs.create t.fss.(p) ~dir name
    | Fs.Dir -> Fs.mkdir t.fss.(p) ~dir name
  else begin
    let fsp = t.fss.(p) in
    let t0 = Engine.now (Fs.engine fsp) in
    let ino =
      Shard.with_cross_tx t.shard [ min p c; max p c ]
        (fun tx_of ->
          (match Fs.dirent_lookup_tx (tx_of p) fsp ~dir ~name with
          | Some _ -> err "create: %S already exists" name
          | None -> ());
          let parent = match knd with Fs.Dir -> dir | Fs.File -> -1 in
          let ino = Fs.mknod_tx (tx_of c) t.fss.(c) knd ~parent in
          Fs.dirent_add_tx (tx_of p) fsp ~dir ~name ~ino;
          ino)
    in
    record fsp op ~t0 ~ino ~aux:dir;
    ino
  end

let create_file t ~dir name = mk_generic Fs.File Fs.op_create t ~dir name
let mkdir t ~dir name = mk_generic Fs.Dir Fs.op_mkdir t ~dir name

let link t ~ino ~dir name =
  Fs.check_name name;
  let p = owner t dir in
  let f = owner t ino in
  if kind_of t ino <> Fs.File then err "link: ino %d is not a regular file" ino;
  if p = f then Fs.link t.fss.(p) ~ino ~dir name
  else begin
    let fsp = t.fss.(p) in
    let t0 = Engine.now (Fs.engine fsp) in
    Shard.with_cross_tx t.shard [ min p f; max p f ]
      (fun tx_of ->
        (match Fs.dirent_lookup_tx (tx_of p) fsp ~dir ~name with
        | Some _ -> err "link: %S already exists" name
        | None -> ());
        Fs.add_link_tx (tx_of f) t.fss.(f) ~ino;
        Fs.dirent_add_tx (tx_of p) fsp ~dir ~name ~ino);
    record fsp Fs.op_link ~t0 ~ino ~aux:dir
  end

let unlink t ~dir name =
  Fs.check_name name;
  let p = owner t dir in
  let fsp = t.fss.(p) in
  match Fs.lookup fsp ~dir name with
  | None -> err "unlink: no entry %S" name
  | Some ino ->
      let f = owner t ino in
      if kind_of t ino <> Fs.File then err "unlink: %S is a directory" name;
      if p = f then Fs.unlink fsp ~dir name
      else begin
        let t0 = Engine.now (Fs.engine fsp) in
        Shard.with_cross_tx t.shard [ min p f; max p f ]
          (fun tx_of ->
            (match Fs.dirent_lookup_tx (tx_of p) fsp ~dir ~name with
            | Some i when i = ino -> ()
            | _ -> err "unlink: entry %S changed underneath" name);
            ignore (Fs.dirent_remove_tx (tx_of p) fsp ~dir ~name);
            Fs.drop_file_link_tx (tx_of f) t.fss.(f) ~ino);
        record fsp Fs.op_unlink ~t0 ~ino ~aux:dir
      end

let rmdir t ~dir name =
  Fs.check_name name;
  let p = owner t dir in
  let fsp = t.fss.(p) in
  match Fs.lookup fsp ~dir name with
  | None -> err "rmdir: no entry %S" name
  | Some ino ->
      let d = owner t ino in
      if kind_of t ino <> Fs.Dir then err "rmdir: %S is not a directory" name;
      if p = d then Fs.rmdir fsp ~dir name
      else begin
        let t0 = Engine.now (Fs.engine fsp) in
        Shard.with_cross_tx t.shard [ min p d; max p d ]
          (fun tx_of ->
            (match Fs.dirent_lookup_tx (tx_of p) fsp ~dir ~name with
            | Some i when i = ino -> ()
            | _ -> err "rmdir: entry %S changed underneath" name);
            if not (Fs.dir_empty_tx (tx_of d) t.fss.(d) ~ino) then
              err "rmdir: %S not empty" name;
            ignore (Fs.dirent_remove_tx (tx_of p) fsp ~dir ~name);
            Fs.free_dir_tx (tx_of d) t.fss.(d) ~ino);
        record fsp Fs.op_rmdir ~t0 ~ino ~aux:dir
      end

(* Committed-state ancestry walk for the cross-shard cycle check: the
   namespace is serial here (one client), so the committed parents are
   current. Terminates at the root (its own parent). *)
let check_no_cycle t ~moved ~dst =
  let rec up cur fuel =
    if fuel = 0 then err "rename: parent chain does not terminate";
    if cur = moved then err "rename: would move a directory under itself";
    let parent = Fs.parent_of t.fss.(owner t cur) cur in
    if parent <> cur then up parent (fuel - 1)
  in
  up dst 1_000_000

let rename t ~src ~src_name ~dst ~dst_name =
  Fs.check_name src_name;
  Fs.check_name dst_name;
  let ps = owner t src in
  let pd = owner t dst in
  let fs_s = t.fss.(ps) in
  let fs_d = t.fss.(pd) in
  let m =
    match Fs.lookup fs_s ~dir:src src_name with
    | Some m -> m
    | None -> err "rename: no entry %S" src_name
  in
  if src = dst && String.equal src_name dst_name then ()
  else begin
    let pm = owner t m in
    let mkind = kind_of t m in
    let clobber =
      match Fs.lookup fs_d ~dir:dst dst_name with
      | Some c when c = m -> err "rename: %S already names the same inode" dst_name
      | Some c ->
          if mkind <> Fs.File || kind_of t c <> Fs.File then
            err "rename: target %S exists" dst_name;
          Some c
      | None -> None
    in
    if mkind = Fs.Dir then check_no_cycle t ~moved:m ~dst;
    let participants =
      List.sort_uniq compare
        (ps :: pd :: pm
        :: (match clobber with Some c -> [ owner t c ] | None -> []))
    in
    match participants with
    | [ _ ] -> Fs.rename fs_s ~src ~src_name ~dst ~dst_name
    | ids ->
        let t0 = Engine.now (Fs.engine fs_s) in
        Shard.with_cross_tx t.shard ids
          (fun tx_of ->
            (match Fs.dirent_lookup_tx (tx_of ps) fs_s ~dir:src ~name:src_name with
            | Some i when i = m -> ()
            | _ -> err "rename: source entry %S changed underneath" src_name);
            (match Fs.dirent_lookup_tx (tx_of pd) fs_d ~dir:dst ~name:dst_name with
            | c when c = clobber -> ()
            | _ -> err "rename: target entry %S changed underneath" dst_name);
            (match clobber with
            | Some c when owner t c = pd ->
                (* Same heap: the name may be [c]'s own name slot, which
                   [unlink_tx] does not clear when it frees [c]. *)
                Fs.unlink_tx (tx_of pd) fs_d ~dir:dst dst_name
            | Some c ->
                ignore
                  (Fs.dirent_remove_tx (tx_of pd) fs_d ~dir:dst
                     ~name:dst_name);
                Fs.drop_file_link_tx (tx_of (owner t c)) t.fss.(owner t c)
                  ~ino:c
            | None -> ());
            ignore
              (Fs.dirent_remove_tx (tx_of ps) fs_s ~dir:src
                 ~name:src_name);
            Fs.dirent_add_tx (tx_of pd) fs_d ~dir:dst ~name:dst_name
              ~ino:m;
            let new_parent =
              if mkind = Fs.Dir then Some dst else None
            in
            Fs.touch_moved_tx (tx_of pm) t.fss.(pm) ~ino:m ~new_parent);
        record fs_s Fs.op_rename ~t0 ~ino:m ~aux:dst
  end
