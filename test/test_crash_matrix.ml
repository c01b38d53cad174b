(* Randomized crash matrix: engine kind x crash mode x coalescing flag.

   For every cell of the matrix, seeded workloads run random transactions
   and crash the machine at the points the coalescing pipeline makes
   delicate — mid-transaction (intent entries possibly merged in place and
   not yet flushed), right after commit (the whole write set queued but not
   propagated), and mid-propagation (the applier's batch partially
   retired) — and each recovery is itself crashed at its first fence,
   then its second, and so on until one completes. After each recovery
   the committed-state model must be intact; at the end the backup
   invariant must hold.

   The load-bearing claim of the write-set coalescing work is that it is
   invisible to every outcome: each seed additionally runs twice, with
   coalescing on and off, and the final committed byte images must be
   identical (the workload's random draws never depend on engine
   internals, so the two runs build the same model). The object workload,
   its model and its snapshot-read dimension are {!Tx_model.run_workload}. *)

module Rng = Kamino_sim.Rng
module Region = Kamino_nvm.Region
module Commit_marker = Kamino_nvm.Commit_marker
module Heap = Kamino_heap.Heap
module Engine = Kamino_core.Engine
module Applier = Kamino_core.Applier

let base_config =
  {
    Engine.default_config with
    Engine.heap_bytes = 1 lsl 20;
    log_slots = 16;
    data_log_bytes = 1 lsl 18;
  }

(* --- sharded dimension ----------------------------------------------------- *)

module Shard = Kamino_shard.Shard

(* Random fence crashes during cross-shard commits. Each round stamps a
   fresh value into one object per participating shard through
   [with_cross_tx], drains the appliers, and crashes at a random fence of
   that window (or not at all), then again inside recovery until one
   completes. The all-or-nothing oracle: every participant shows the new
   stamp or every participant keeps its previous one — there is no fence
   at which a mixed outcome is acceptable — and the model advances iff
   the stamp landed. Once [with_cross_tx] has returned the stamp is
   committed: a crash in the drain after it must keep it everywhere. *)
let sharded_case crash_mode () =
  List.iter
    (fun seed ->
      let shards = 3 in
      let config = { base_config with Engine.crash_mode } in
      let s = Shard.create ~config ~kind:Engine.Kamino_simple ~seed ~shards () in
      let rng = Rng.create (seed * 71) in
      let cells =
        Array.init shards (fun i ->
            Shard.with_tx s i (fun tx ->
                let p = Engine.alloc tx 64 in
                Engine.write_int64 tx p 0 0L;
                p))
      in
      let stamps = Array.make shards 0L in
      let crash () = Shard.crash s in
      for round = 1 to 30 do
        let context = Printf.sprintf "sharded seed=%d round=%d" seed round in
        (* 2 or 3 participants, random composition. *)
        let ids =
          let all = [ 0; 1; 2 ] in
          if Rng.bool rng then all
          else
            let out = Rng.int rng shards in
            List.filter (fun i -> i <> out) all
        in
        let stamp = Int64.of_int ((round * 100) + seed) in
        (* A three-shard stamp and its drain take 18 fences. *)
        let crash_at = Rng.int rng 24 in
        let write_all tx_of =
          List.iter
            (fun i ->
              let tx = tx_of i in
              Engine.add tx cells.(i);
              Engine.write_int64 tx cells.(i) 0 stamp)
            ids
        in
        let outcome =
          Fence_sweep.attempt ~crash crash_at
            ~drain:(fun () -> Shard.drain_backups s)
            (fun () -> Shard.with_cross_tx s ids write_all)
        in
        (match outcome with
        | Fence_sweep.Completed () -> ()
        | Crashed_in_op | Crashed_in_drain () ->
            ignore (Fence_sweep.recover_chained ~crash ~recover:(fun () -> Shard.recover s)));
        let cell i = Engine.peek_int64 (Shard.engine s i) cells.(i) 0 in
        let applied = List.for_all (fun i -> cell i = stamp) ids in
        if outcome <> Crashed_in_op && not applied then
          Alcotest.failf "%s (crash_at=%d): committed stamp lost" context crash_at;
        if applied then List.iter (fun i -> stamps.(i) <- stamp) ids;
        List.iter
          (fun i ->
            let v = cell i in
            if v <> stamps.(i) then
              Alcotest.failf "%s (crash_at=%d): shard %d cell is %Ld, expected %Ld" context
                crash_at i v stamps.(i))
          [ 0; 1; 2 ];
        Alcotest.(check bool) (context ^ ": marker retired") true
          (Commit_marker.read (Shard.marker s) = None)
      done;
      Shard.drain_backups s;
      (match Shard.verify_backups s with
      | Ok () -> ()
      | Error err -> Alcotest.failf "sharded seed=%d: %s" seed err);
      Array.iteri
        (fun i e ->
          match Heap.validate (Engine.heap e) with
          | Ok () -> ()
          | Error err -> Alcotest.failf "sharded seed=%d shard %d: %s" seed i err)
        (Array.init shards (Shard.engine s)))
    (List.init 12 (fun i -> i + 1))

let seeds = List.init 17 (fun i -> i + 1)

let matrix_case name spec crash_mode () =
  List.iter
    (fun seed ->
      let run coalesce_writes =
        Tx_model.run_workload ~spec
          ~config:{ base_config with Engine.crash_mode; coalesce_writes }
          ~seed ~rounds:40
      in
      let image_on = run true (name ^ "/coalesce") in
      let image_off = run false (name ^ "/raw") in
      if image_on <> image_off then
        Alcotest.failf
          "%s seed=%d: coalescing changed the final committed state (%d vs %d objects)"
          name seed (List.length image_on) (List.length image_off))
    seeds

(* --- filesystem dimension --------------------------------------------------- *)

module Fs = Kamino_fs.Fs
module Fs_check = Kamino_fs.Fs_check

(* Seeded random filesystem workloads with crash injection, across all
   six engine kinds and both crash modes. The namespace and every file's
   bytes are mirrored in a volatile model; fs semantic rejections (name
   exists, directory not empty, cycle, ...) leave both sides untouched.
   Atomic kinds additionally crash at random fences inside operations and
   inside the recoveries that follow; every kind crashes at operation
   boundaries. After every
   recovery: {!Fs_check.fsck} plus a full sweep — every directory's
   listing, every file's bytes, every link count. *)

let splice content ~off s =
  let n = max (String.length content) (off + String.length s) in
  let b = Bytes.make n '\000' in
  Bytes.blit_string content 0 b 0 (String.length content);
  Bytes.blit_string s 0 b off (String.length s);
  Bytes.to_string b

let model_truncate content len =
  if len <= String.length content then String.sub content 0 len
  else content ^ String.make (len - String.length content) '\000'

let fs_case (kname, spec, atomic) crash_mode () =
  List.iter
    (fun seed ->
      let config =
        {
          base_config with
          Engine.heap_bytes = 2 lsl 20;
          log_slots = 64;
          max_tx_entries = 8192;
          data_log_bytes = 1 lsl 20;
          crash_mode;
        }
      in
      (* A chain head formats before its promotion, so the whole heap
         stays fs-owned, which the fsck heap-accounting pass insists on. *)
      let e, fs =
        Tx_model.create spec ~config ~seed:(seed + 500)
          ~init:(Fs.format ~block_size:64 ~dir_hash_bits:2)
      in
      let root = Fs.root_ino fs in
      let rng = Rng.create (seed * 13) in
      (* The volatile mirror. *)
      let entries : (int, (string, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 16 in
      let contents : (int, string) Hashtbl.t = Hashtbl.create 16 in
      let nlinks : (int, int) Hashtbl.t = Hashtbl.create 16 in
      Hashtbl.replace entries root (Hashtbl.create 8);
      let dirs () = Hashtbl.fold (fun k _ a -> k :: a) entries [] |> List.sort compare in
      let files () = Hashtbl.fold (fun k _ a -> k :: a) contents [] |> List.sort compare in
      let pick l = List.nth l (Rng.int rng (List.length l)) in
      let gen_name () = Printf.sprintf "n%d" (Rng.int rng 10) in
      let drop_link ino =
        let nl = Hashtbl.find nlinks ino - 1 in
        if nl = 0 then begin
          Hashtbl.remove nlinks ino;
          Hashtbl.remove contents ino
        end
        else Hashtbl.replace nlinks ino nl
      in
      (* [None] when the fs matches the model, else the first divergence. *)
      let mismatch () =
        let first = ref None in
        let diverge fmt =
          Printf.ksprintf (fun m -> if !first = None then first := Some m) fmt
        in
        (try
           Hashtbl.iter
             (fun d tbl ->
               let got = List.sort compare (Fs.readdir fs ~dir:d) in
               let want =
                 Hashtbl.fold (fun n i a -> (n, i) :: a) tbl [] |> List.sort compare
               in
               if got <> want then
                 diverge "directory %d lists %d entries, model has %d" d
                   (List.length got) (List.length want))
             entries;
           Hashtbl.iter
             (fun f content ->
               let st = Fs.stat fs f in
               if st.Fs.size <> String.length content then
                 diverge "file %d size %d, model %d" f st.Fs.size (String.length content);
               if st.Fs.nlink <> Hashtbl.find nlinks f then
                 diverge "file %d nlink %d, model %d" f st.Fs.nlink (Hashtbl.find nlinks f);
               let got = Fs.read fs ~ino:f ~off:0 ~len:(String.length content) in
               if got <> content then diverge "file %d bytes diverge" f)
             contents
         with Fs.Fs_error m -> diverge "%s" m);
        !first
      in
      let fsck ctx =
        match Fs_check.fsck fs with
        | Ok () -> ()
        | Error err -> Alcotest.failf "%s: fsck: %s" ctx err
      in
      let verify ctx =
        fsck ctx;
        match mismatch () with None -> () | Some m -> Alcotest.failf "%s: %s" ctx m
      in
      let crash () = Engine.crash e in
      let crash_recover () =
        crash ();
        Engine.recover e
      in
      (* Run one operation; on atomic kinds, now and then crash it (and
         its applier drain) at a random fence, then again inside
         recovery until one completes. A crash past the commit point
         keeps the operation, so the recovered fs must match the model
         before the operation or after it, and the model advances iff
         the fs shows it; [recovered] rebuilds the operation's result
         from the recovered fs. Semantic rejections leave both sides
         untouched. *)
      let run ctx op ~apply ~recovered =
        if atomic && Rng.int rng 4 = 0 then begin
          let crash_at = Rng.int rng 40 in
          let recover ctx =
            ignore (Fence_sweep.recover_chained ~crash ~recover:(fun () -> Engine.recover e));
            let ctx = Printf.sprintf "%s (crash at fence %d)" ctx crash_at in
            fsck ctx;
            ctx
          in
          match Fence_sweep.attempt ~crash crash_at ~drain:(fun () -> Engine.drain_backup e) op with
          | Completed v -> apply v
          | Crashed_in_drain v ->
              (* [op] returned, so it committed: only the post-op state will do. *)
              let ctx = recover ctx in
              apply v;
              Option.iter (Alcotest.failf "%s: committed operation lost: %s" ctx) (mismatch ())
          | Crashed_in_op -> (
              let ctx = recover ctx in
              match mismatch () with
              | None -> ()
              | Some pre -> (
                  (match recovered () with Some v -> apply v | None -> ());
                  match mismatch () with
                  | None -> ()
                  | Some post ->
                      Alcotest.failf "%s: neither the pre-op state (%s) nor the post-op (%s)"
                        ctx pre post))
          | exception Fs.Fs_error _ -> ()
        end
        else
          match op () with
          | v -> apply v
          | exception Fs.Fs_error _ -> ()
      in
      let run_unit ctx op ~apply = run ctx op ~apply ~recovered:(fun () -> Some ()) in
      for round = 1 to 50 do
        let ctx = Printf.sprintf "fs/%s seed=%d round=%d" kname seed round in
        (match Rng.int rng 12 with
        | 0 | 1 ->
            let dir = pick (dirs ()) and name = gen_name () in
            run ctx
              (fun () -> Fs.create fs ~dir name)
              ~recovered:(fun () -> Fs.lookup fs ~dir name)
              ~apply:(fun ino ->
                Hashtbl.replace (Hashtbl.find entries dir) name ino;
                Hashtbl.replace contents ino "";
                Hashtbl.replace nlinks ino 1)
        | 2 ->
            let dir = pick (dirs ()) and name = gen_name () in
            run ctx
              (fun () -> Fs.mkdir fs ~dir name)
              ~recovered:(fun () -> Fs.lookup fs ~dir name)
              ~apply:(fun ino ->
                Hashtbl.replace (Hashtbl.find entries dir) name ino;
                Hashtbl.replace entries ino (Hashtbl.create 8))
        | 3 | 4 when files () <> [] ->
            let f = pick (files ()) in
            let off = Rng.int rng 300 in
            let s = Printf.sprintf "<%d:%d>" round (Rng.int rng 1000) in
            run_unit ctx
              (fun () -> Fs.write fs ~ino:f ~off s)
              ~apply:(fun () ->
                Hashtbl.replace contents f (splice (Hashtbl.find contents f) ~off s))
        | 5 when files () <> [] ->
            let f = pick (files ()) in
            let len = Rng.int rng 400 in
            run_unit ctx
              (fun () -> Fs.truncate fs ~ino:f ~len)
              ~apply:(fun () ->
                Hashtbl.replace contents f (model_truncate (Hashtbl.find contents f) len))
        | 6 ->
            (* Rename a random model entry to a random directory; the fs
               decides legality (clobber rules, cycles) and the model
               follows its verdict. *)
            let candidates =
              Hashtbl.fold
                (fun d tbl acc -> Hashtbl.fold (fun n i acc -> (d, n, i) :: acc) tbl acc)
                entries []
              |> List.sort compare
            in
            if candidates <> [] then begin
              let src, src_name, moved = pick candidates in
              let dst = pick (dirs ()) and dst_name = gen_name () in
              let clobbered = Hashtbl.find_opt (Hashtbl.find entries dst) dst_name in
              run_unit ctx
                (fun () -> Fs.rename fs ~src ~src_name ~dst ~dst_name)
                ~apply:(fun () ->
                  if not (src = dst && src_name = dst_name) then begin
                    (match clobbered with
                    | Some c -> drop_link c
                    | None -> ());
                    Hashtbl.remove (Hashtbl.find entries src) src_name;
                    Hashtbl.replace (Hashtbl.find entries dst) dst_name moved
                  end)
            end
        | 7 when files () <> [] ->
            let f = pick (files ()) in
            let dir = pick (dirs ()) and name = gen_name () in
            run_unit ctx
              (fun () -> Fs.link fs ~ino:f ~dir name)
              ~apply:(fun () ->
                Hashtbl.replace (Hashtbl.find entries dir) name f;
                Hashtbl.replace nlinks f (Hashtbl.find nlinks f + 1))
        | 8 ->
            let with_entries =
              List.filter (fun d -> Hashtbl.length (Hashtbl.find entries d) > 0) (dirs ())
            in
            if with_entries <> [] then begin
              let dir = pick with_entries in
              let tbl = Hashtbl.find entries dir in
              let names = Hashtbl.fold (fun n _ a -> n :: a) tbl [] |> List.sort compare in
              let name = pick names in
              let target = Hashtbl.find tbl name in
              if Hashtbl.mem entries target then
                run_unit ctx
                  (fun () -> Fs.rmdir fs ~dir name)
                  ~apply:(fun () ->
                    Hashtbl.remove tbl name;
                    Hashtbl.remove entries target)
              else
                run_unit ctx
                  (fun () -> Fs.unlink fs ~dir name)
                  ~apply:(fun () ->
                    Hashtbl.remove tbl name;
                    drop_link target)
            end
        | 9 ->
            (* Crash at an operation boundary — the only crash point
               No_logging promises anything about. *)
            crash_recover ();
            verify (ctx ^ " (boundary crash)")
        | 10 ->
            (* Partially retired applier batch, then the power fails. *)
            (match Engine.applier e with
            | Some a -> ignore (Applier.drain_one a)
            | None -> ());
            crash_recover ();
            verify (ctx ^ " (mid-applier crash)")
        | _ when files () <> [] ->
            let f = pick (files ()) in
            let model = Hashtbl.find contents f in
            let got = Fs.read fs ~ino:f ~off:0 ~len:(max 1 (String.length model)) in
            if got <> model then Alcotest.failf "%s: read diverges from model" ctx
        | _ -> ());
        if round mod 10 = 0 then verify ctx
      done;
      Engine.drain_backup e;
      verify (Printf.sprintf "fs/%s seed=%d final" kname seed);
      match Engine.verify_backup e with
      | Ok () -> ()
      | Error err -> Alcotest.failf "fs/%s seed=%d: backup: %s" kname seed err)
    (List.init 6 (fun i -> i + 1))

(* --- chain snapshots across a view change ---------------------------------- *)

(* §5.2 crossed with lock-free snapshot reads: while a head promotion is
   in flight the new head has no full backup, so its snapshot watermark is
   [None] and {!Cluster_kv.snapshot_get} must take the tail-read fallback;
   once the promotion completes, every snapshot served from the backup at
   the published watermark must be a prefix state of the chain's applied
   history — never a torn or future value. *)
let chain_snapshot_case () =
  let module Sim = Kamino_sim.Engine in
  let module Op = Kamino_chain.Op in
  let module Async = Kamino_chain.Async_chain in
  let module Cluster = Kamino_cluster.Cluster in
  let module Cluster_kv = Kamino_cluster.Cluster_kv in
  let module Kv = Kamino_kv.Kv in
  let cluster =
    Cluster.create
      ~engine_config:
        {
          Engine.default_config with
          Engine.heap_bytes = 1 lsl 18;
          log_slots = 64;
          data_log_bytes = 1 lsl 16;
        }
      ~hop_ns:5000 ~rpc_ns:500 ~promote_ns:40_000 ~shards:1 ~f:2 ~value_size:64
      ~node_size:512 ~seed:21 ()
  in
  let ch = Cluster.chain cluster 0 in
  let key = 1 in
  let writes = 30 in
  for i = 1 to writes do
    Cluster.submit cluster ~at:(i * 3_000)
      (Op.Put (key, Printf.sprintf "v%d" i))
      ~on_complete:(fun _ -> ())
  done;
  (* Fail-stop the head mid-stream: the promotion window (40us) overlaps
     both the remaining writes and the early probes. *)
  Async.fail_stop ch ~at:25_000 (Async.head_id ch);
  let probes = ref [] in
  let sim = Cluster.sim cluster in
  List.iter
    (fun t ->
      Sim.schedule sim ~at:t (fun () ->
          let head = Async.head_id ch in
          match Engine.snapshot_watermark (Async.engine_at ch head) with
          | None -> probes := (t, None) :: !probes
          | Some wm ->
              probes :=
                (t, Some (wm, Kv.snapshot_get (Async.kv_at ch head) key))
                :: !probes))
    [ 26_000; 31_000; 38_000; 47_000; 58_000; 72_000; 90_000; 110_000; 150_000 ];
  ignore (Cluster.run cluster);
  let probes = List.rev !probes in
  (* Prefix states of key 1: absent, then v1..vN in order. Any snapshot
     must be one of them. *)
  let prefix_states =
    None :: List.init writes (fun i -> Some (Printf.sprintf "v%d" (i + 1)))
  in
  let fallbacks = List.filter (fun (_, p) -> p = None) probes in
  let snapshots = List.filter_map (fun (t, p) -> Option.map (fun s -> (t, s)) p) probes in
  Alcotest.(check bool)
    (Printf.sprintf "promotion window forced %d fallback probe(s)"
       (List.length fallbacks))
    true
    (List.length fallbacks >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "backup served %d snapshot probe(s) after promotion"
       (List.length snapshots))
    true
    (List.length snapshots >= 1);
  List.iter
    (fun (t, (wm, v)) ->
      if not (List.mem v prefix_states) then
        Alcotest.failf "probe at %d: snapshot %s is not a prefix state" t
          (match v with Some s -> s | None -> "absent");
      ignore wm)
    snapshots;
  (* Watermarks only advance. *)
  ignore
    (List.fold_left
       (fun prev (t, (wm, _)) ->
         if wm < prev then
           Alcotest.failf "probe at %d: watermark went backwards" t;
         wm)
       (0, 0) snapshots);
  (* Settled and with the head's applier drained, the closed-loop
     snapshot agrees with a tail read. *)
  let kv = Cluster_kv.create cluster in
  Engine.drain_backup (Async.engine_at ch (Async.head_id ch));
  Alcotest.(check bool) "settled head serves snapshots" true
    (Engine.snapshot_watermark (Async.engine_at ch (Async.head_id ch)) <> None);
  Alcotest.(check (option string))
    "settled snapshot equals the tail read"
    (Cluster_kv.get kv key)
    (Cluster_kv.snapshot_get kv key)

let () =
  let short =
    [ ("kamino-simple", "simple"); ("kamino-dynamic", "dynamic"); ("chain-head", "chain-head") ]
  in
  let kinds =
    List.filter_map
      (fun (name, spec, _) -> Option.map (fun s -> (s, spec)) (List.assoc_opt name short))
      Tx_model.kinds
  in
  let modes =
    [
      ("drop-unflushed", Region.Drop_unflushed);
      ("words-random", Region.Words_survive_randomly);
    ]
  in
  let cases =
    List.concat_map
      (fun (kname, spec) ->
        List.map
          (fun (mname, mode) ->
            let name = Printf.sprintf "%s x %s" kname mname in
            Alcotest.test_case
              (Printf.sprintf "%s (%d seeds, coalescing on+off)" name
                 (List.length seeds))
              `Slow
              (matrix_case name spec mode))
          modes)
      kinds
  in
  let sharded =
    List.map
      (fun (mname, mode) ->
        Alcotest.test_case
          (Printf.sprintf "sharded x %s (12 seeds, random crash points)" mname)
          `Slow (sharded_case mode))
      modes
  in
  let fs_cases =
    List.concat_map
      (fun ((kname, _, _) as builder) ->
        List.map
          (fun (mname, mode) ->
            Alcotest.test_case
              (Printf.sprintf "fs/%s x %s (6 seeds, random workload)" kname mname)
              `Slow (fs_case builder mode))
          modes)
      Tx_model.kinds
  in
  let chain_snapshot =
    [
      Alcotest.test_case "snapshot_get across a chain view change" `Quick
        chain_snapshot_case;
    ]
  in
  Alcotest.run "crash_matrix"
    [
      ("matrix", cases);
      ("sharded", sharded);
      ("fs", fs_cases);
      ("chain-snapshot", chain_snapshot);
    ]
