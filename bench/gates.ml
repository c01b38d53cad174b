(* Gates: the checks that neither the benchmark suite (`bench/suite`) nor
   `dune runtest` makes. Every cell runs a fixed, seeded op count with no
   wall-clock budget, so every simulated field is exact per seed; the wall
   fields are this host's measurement.

   - snapshot reads: YCSB-B/C/D on kamino-simple, reads through the locked
     transactional path ([Kv.get]) and through the lock-free backup
     snapshot ([Kv.snapshot_get] on a reader clock, counted in the
     cell's sim-ns). Fails if a snapshot cell is slower than its locked
     cell in wall ops/s or is not cheaper in sim-ns/op, or serves no
     backup hits: readers that skip locks must not lose.
   - shards: YCSB-A, uniform and zipf keys, 8 clients pinned round-robin
     over 1, 2 and 4 shards, each on 1 and 2 OCaml domains. Fails if more
     shards lose simulated throughput (the monotone gate), if a 2-domain
     run differs from the 1-domain run in any engine fingerprint, elapsed
     sim-ns, mean latency or committed count (the determinism oracle), or
     if the best uniform 2-domain wall speedup is below 1.6x on a host
     with 2 or more cores (SKIP below that).
   - fs: smallfile and largefile over `lib/fs` on five engine kinds. Every
     cell must pass [Fs_check.fsck] and complete operations.
   - scale: a 1M-record preload (bulk load, segmented heap), then YCSB-A
     and YCSB-E on kamino-dyn-50 and undo-logging. Every cell must
     complete operations.

   Usage: gates.exe [--out PATH]   (default BENCH_gates.json)
   Writes every cell and every failure to PATH. A failure of a modelled
   gate (fsck, determinism, monotone, sim-ns, zero work) goes to
   [failures] and makes the exit status non-zero; a failure of a wall
   gate (snapshot wall ops/s, the 2-domain wall floor) goes to
   [wall_failures], which CI reports in a step of its own, so host noise
   never hides a modelled change. `bench/check_gates.sh RECORD RUN`
   compares a run's modelled fields and [failures] with the committed
   record. *)

module Rng = Kamino_sim.Rng
module Cost_model = Kamino_nvm.Cost_model
module Engine = Kamino_core.Engine
module Backup = Kamino_core.Backup
module Kv = Kamino_kv.Kv
module Ycsb = Kamino_workload.Ycsb
module Zipf = Kamino_workload.Zipf
module Driver = Kamino_workload.Driver
module Metrics = Kamino_obs.Metrics
module Shard = Kamino_shard.Shard
module Shard_kv = Kamino_shard.Shard_kv
module Fs = Kamino_fs.Fs
module Fs_check = Kamino_fs.Fs_check

(* --- cells and failures --------------------------------------------------- *)

type value = I of int | F of float | S of string

(* One JSON object: the part it belongs to first, then its fields. *)
type cell = (string * value) list

let failures = ref []

let wall_failures = ref []

let fail_into list fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("FAIL: " ^ m);
      list := m :: !list)
    fmt

let fail fmt = fail_into failures fmt

let fail_wall fmt = fail_into wall_failures fmt

(* Every string written is an ASCII name or message, for which OCaml's
   escapes are JSON's. *)
let json_string = Printf.sprintf "%S"

let json_value = function
  | I i -> string_of_int i
  | F f -> if Float.is_finite f then Printf.sprintf "%.12g" f else "null"
  | S s -> json_string s

let json_of_cell (c : cell) =
  "    {"
  ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ json_value v) c)
  ^ "}"

let float_field c k = match List.assoc k c with F f -> f | I i -> float_of_int i | S _ -> nan

let kamino_dyn alpha = Engine.Kamino_dynamic { alpha; policy = Backup.Lru_policy }

(* --- the fixed-op window -------------------------------------------------- *)

(* One engine's measured window: [warmup] calls of [step 0], then the
   measured steps, numbered from 1 and run in one go or in slices. The
   window's sim-ns is the engine clock's advance plus [reader]'s, the
   clock snapshot reads charge. *)
type meter = {
  e : Engine.t;
  reader : Kamino_sim.Clock.t option;
  step : int -> unit;
  mutable steps : int;
  mutable sim_ns : int;
  mutable words : float;
  mutable wall_s : float;
}

let meter ?reader ~warmup e step =
  for _ = 1 to warmup do
    step 0
  done;
  Engine.drain_backup e;
  Gc.minor ();
  { e; reader; step; steps = 0; sim_ns = 0; words = 0.0; wall_s = 0.0 }

let sim_now m =
  Engine.now m.e + match m.reader with Some c -> Kamino_sim.Clock.now c | None -> 0

let run m n =
  let sim0 = sim_now m and w0 = Gc.minor_words () and t0 = Common.Wall.now_s () in
  for i = m.steps + 1 to m.steps + n do
    m.step i
  done;
  m.wall_s <- m.wall_s +. Common.Wall.elapsed_s ~since:t0;
  m.words <- m.words +. (Gc.minor_words () -. w0);
  m.sim_ns <- m.sim_ns + (sim_now m - sim0);
  m.steps <- m.steps + n

(* The cell's common fields; [ops] is the operation count the measured
   steps amount to. *)
let fields ~ops m =
  let per x = if ops = 0 then 0.0 else x /. float_of_int ops in
  [
    ("ops", I ops);
    ("sim_ns_per_op", F (per (float_of_int m.sim_ns)));
    ("words_per_op", F (per m.words));
    ("wall_s", F m.wall_s);
    ("wall_ops_per_s", F (if m.wall_s > 0.0 then float_of_int ops /. m.wall_s else 0.0));
  ]

let window ~warmup ~steps ~ops e step =
  let m = meter ~warmup e step in
  run m steps;
  fields ~ops m

(* --- YCSB over one store -------------------------------------------------- *)

let payload = String.make 240 'k'

let ycsb_store ~config ~kind ~records =
  let e = Engine.create ~config ~kind ~seed:90210 () in
  let kv = Kv.create e ~value_size:256 ~node_size:1024 in
  Kv.load kv ~count:records ~key:Fun.id ~value:(fun _ -> payload);
  Engine.drain_backup e;
  (e, kv)

let ycsb_step ~read kv w rng _ =
  match Ycsb.next w rng with
  | Ycsb.Read k -> read k
  | Ycsb.Update k | Ycsb.Insert k -> Kv.put kv k payload
  | Ycsb.Scan (k, n) -> ignore (Kv.scan kv ~lo:k ~count:n (fun _ _ -> ()))
  | Ycsb.Rmw k -> ignore (Kv.read_modify_write kv k Fun.id)

let kv_config ~heap_bytes =
  { Engine.default_config with Engine.heap_bytes; log_slots = 256; data_log_bytes = 8 * 1024 * 1024 }

(* --- snapshot reads ------------------------------------------------------- *)

let read_records = 4096

let read_ops = 200_000

let read_slices = 20

let read_meter ~snapshot wl =
  let e, kv =
    ycsb_store ~config:(kv_config ~heap_bytes:(32 * 1024 * 1024)) ~kind:Engine.Kamino_simple
      ~records:read_records
  in
  let w = Ycsb.create wl ~record_count:read_records ~theta:0.99 in
  let rng = Rng.create 777 in
  if snapshot then
    let reader = Kamino_sim.Clock.create_at (Engine.now e) in
    let read k = ignore (Kv.snapshot_get ~clock:reader kv k) in
    meter ~reader ~warmup:64 e (ycsb_step ~read kv w rng)
  else meter ~warmup:64 e (ycsb_step ~read:(fun k -> ignore (Kv.get kv k)) kv w rng)

let read_cell ~snapshot wl_name m =
  let em = Engine.metrics m.e in
  let h = Metrics.hist (Engine.registry m.e) "engine.snapshot_staleness_ns" in
  [
    ("part", S "snapshot_reads");
    ("engine", S "kamino-simple");
    ("workload", S wl_name);
    ("mode", S (if snapshot then "snapshot" else "locked"));
    ("records", I read_records);
  ]
  @ fields ~ops:read_ops m
  @ [
      ("snapshot_hits", I em.Engine.snapshot_hits);
      ("snapshot_fallbacks", I em.Engine.snapshot_fallbacks);
      ("staleness_p50_ns", I (Metrics.percentile h 50.0));
      ("staleness_p99_ns", I (Metrics.percentile h 99.0));
      ("staleness_max_ns", I (Metrics.max_value h));
    ]

(* The locked and snapshot stores run side by side in alternating slices,
   so a change in host load lands on both columns alike. *)
let snapshot_reads () =
  Printf.printf "snapshot reads: kamino-simple, %d records, %d ops per cell\n%!" read_records
    read_ops;
  List.concat_map
    (fun (name, wl) ->
      let ml = read_meter ~snapshot:false wl and ms = read_meter ~snapshot:true wl in
      for _ = 1 to read_slices do
        run ml (read_ops / read_slices);
        run ms (read_ops / read_slices)
      done;
      let locked = read_cell ~snapshot:false name ml and snap = read_cell ~snapshot:true name ms in
      let l = float_field locked "wall_ops_per_s" and s = float_field snap "wall_ops_per_s" in
      let lsim = float_field locked "sim_ns_per_op" and ssim = float_field snap "sim_ns_per_op" in
      let hits = int_of_float (float_field snap "snapshot_hits") in
      Printf.printf
        "  %-7s locked %9.0f ops/s %6.1f sim-ns/op | snapshot %9.0f ops/s %6.1f sim-ns/op \
         (%.2fx)  %d hits\n%!"
        name l lsim s ssim
        (if l > 0.0 then s /. l else 0.0)
        hits;
      if s < l then fail_wall "%s snapshot reads (%.0f ops/s) below the locked baseline (%.0f)" name s l;
      if ssim >= lsim then
        fail "%s snapshot reads (%.1f sim-ns/op) not below the locked baseline (%.1f)" name
          ssim lsim;
      if hits = 0 then fail "%s snapshot run served zero backup hits" name;
      [ locked; snap ])
    [ ("ycsb-b", Ycsb.B); ("ycsb-c", Ycsb.C); ("ycsb-d", Ycsb.D) ]

(* --- shard and domain scaling --------------------------------------------- *)

(* Fixed clients pinned round-robin over the shards, each drawing 50/50
   reads/updates from its home shard's keys. The cell is applier-bound —
   slow-NVM copy costs and a small intent-log ring — so one backup
   timeline is the 1-shard bottleneck and per-shard appliers are what
   extra shards buy (DESIGN.md §11). *)

let shard_records = 4096

let shard_clients = 8

let shard_ops = 20_000

let wall_floor = 1.6

type shard_run = {
  shards : int;
  domains : int;
  r : Driver.result;
  committed : int;
  fingerprints : string array;
  wall_s : float;
}

let shard_run ~zipf ~shards ~domains =
  let config =
    {
      Engine.default_config with
      Engine.heap_bytes = shard_records * 4096;
      log_slots = 8;
      data_log_bytes = 8 * 1024 * 1024;
      cost = Cost_model.slow_nvm;
    }
  in
  let s = Shard.create ~config ~kind:Engine.Kamino_simple ~seed:90210 ~shards () in
  let kv = Shard_kv.create s ~value_size:1024 ~node_size:1024 in
  let value = String.make 1000 'k' in
  for k = 0 to shard_records - 1 do
    Shard_kv.put kv k value
  done;
  Shard.drain_backups s;
  let own = Array.make shards [] in
  for k = shard_records - 1 downto 0 do
    let i = Shard.route s k in
    own.(i) <- k :: own.(i)
  done;
  let own = Array.map Array.of_list own in
  (* Zipf: one generator per shard over its own keys, so each shard has its
     own hot set and the hottest shard bounds wall-clock scaling. *)
  let zipfs = Array.map (fun keys -> Zipf.create ~n:(Array.length keys) ~theta:0.99) own in
  let rngs = Array.init shard_clients (fun c -> Rng.create (777 + c)) in
  let t0 = Common.Wall.now_s () in
  let r =
    Kamino_shard.Shard_driver.run ~domains ~shard:s ~clients:shard_clients
      ~total_ops:shard_ops
      ~step:(fun ~client ~shard_id () ->
        let rng = rngs.(client) and keys = own.(shard_id) in
        let k =
          if zipf then keys.(Zipf.sample_scrambled zipfs.(shard_id) rng)
          else keys.(Rng.int rng (Array.length keys))
        in
        if Rng.int rng 100 < 50 then begin
          ignore (Kv.get (Shard_kv.store kv shard_id) k);
          "read"
        end
        else begin
          Kv.put (Shard_kv.store kv shard_id) k value;
          "update"
        end)
      ()
  in
  let wall_s = Common.Wall.elapsed_s ~since:t0 in
  {
    shards;
    domains;
    r;
    committed = Shard.committed s;
    fingerprints = Array.init shards (fun i -> Engine.fingerprint (Shard.engine s i));
    wall_s;
  }

let shard_cell ~wl ~speedup c =
  [
    ("part", S "shards");
    ("workload", S wl);
    ("shards", I c.shards);
    ("domains", I c.domains);
    ("clients", I shard_clients);
    ("records", I shard_records);
    ("ops", I c.r.Driver.total_ops);
    ("elapsed_sim_ns", I c.r.Driver.elapsed_ns);
    ("sim_mops", F c.r.Driver.throughput_mops);
    ("mean_latency_ns", F c.r.Driver.mean_latency_ns);
    ("committed", I c.committed);
    ("wall_s", F c.wall_s);
    ("wall_speedup", F speedup);
  ]

let shards ~cores =
  Printf.printf
    "shard scaling: ycsb-a uniform+zipf, %d ops, %d clients, %d records, shards 1,2,4, \
     domains 1,2 (%d cores)\n%!"
    shard_ops shard_clients shard_records cores;
  let best = ref 0.0 in
  let cells =
    List.concat_map
      (fun zipf ->
        let wl = if zipf then "ycsb-a-zipf" else "ycsb-a-uniform" in
        let runs =
          List.map
            (fun shards ->
              let base = shard_run ~zipf ~shards ~domains:1 in
              let par = shard_run ~zipf ~shards ~domains:2 in
              (* The determinism oracle: a parallel run is the sequential
                 run, bit for bit, in simulated space. *)
              if
                par.fingerprints <> base.fingerprints
                || par.r.Driver.elapsed_ns <> base.r.Driver.elapsed_ns
                || par.r.Driver.mean_latency_ns <> base.r.Driver.mean_latency_ns
                || par.committed <> base.committed
              then
                fail "%s shards=%d domains=2 diverges from the sequential run (sim %d vs %d ns, %d vs %d committed)"
                  wl shards par.r.Driver.elapsed_ns base.r.Driver.elapsed_ns par.committed
                  base.committed;
              let speedup = if par.wall_s > 0.0 then base.wall_s /. par.wall_s else 0.0 in
              if (not zipf) && shards >= 2 then best := max !best speedup;
              List.iter
                (fun c ->
                  Printf.printf
                    "  %-14s shards=%d domains=%d %8.4f sim-M ops/s  (%.3fs wall)\n%!" wl
                    c.shards c.domains c.r.Driver.throughput_mops c.wall_s)
                [ base; par ];
              (base, [ shard_cell ~wl ~speedup:1.0 base; shard_cell ~wl ~speedup par ]))
            [ 1; 2; 4 ]
        in
        (* The monotone gate: more appliers never lose aggregate simulated
           throughput against the 1-shard run. *)
        let one = fst (List.hd runs) in
        List.iter
          (fun (c, _) ->
            if c.r.Driver.throughput_mops < one.r.Driver.throughput_mops then
              fail "%s %d-shard aggregate ops/s (%.4f M) below the 1-shard run (%.4f M)" wl
                c.shards c.r.Driver.throughput_mops one.r.Driver.throughput_mops)
          runs;
        List.concat_map snd runs)
      [ false; true ]
  in
  (* The wall floor: on one core, domains time-slice one CPU, so there is
     nothing to win and the gate reports SKIP. *)
  if cores < 2 then
    Printf.printf "SKIP: wall-speedup gate needs >= 2 cores (host reports %d); best %.2fx\n%!"
      cores !best
  else if !best < wall_floor then
    fail_wall "best 2-domain wall speedup %.2fx is below the %.2fx floor" !best wall_floor
  else Printf.printf "wall-speedup gate: %.2fx at 2 domains (floor %.2fx)\n%!" !best wall_floor;
  cells

(* --- filesystem ----------------------------------------------------------- *)

(* smallfile: create a ~100-byte file in a rotating directory, write, read
   back, unlink — four multi-object transactions per cycle. largefile:
   append 64 block-sized chunks to one file, then truncate it to zero —
   where undo and cow pay per-byte logging or copies and Kamino pays
   backup propagation. *)

let fs_ops = 4000

let fs_kinds =
  [
    ("no-logging", Engine.No_logging);
    ("undo-logging", Engine.Undo_logging);
    ("cow", Engine.Cow);
    ("kamino-simple", Engine.Kamino_simple);
    ("kamino-dyn-30", kamino_dyn 0.3);
  ]

let fs_cell (engine, kind) workload =
  let config =
    {
      Engine.default_config with
      Engine.heap_bytes = 32 * 1024 * 1024;
      log_slots = 256;
      max_tx_entries = 8192;
      data_log_bytes = 8 * 1024 * 1024;
    }
  in
  let e = Engine.create ~config ~kind ~seed:90210 () in
  let block_size = if workload = "smallfile" then 512 else 4096 in
  let fs = Fs.format ~block_size ~dir_hash_bits:4 e in
  let root = Fs.root_ino fs in
  let per_cycle, step =
    if workload = "smallfile" then begin
      let dirs = Array.init 8 (fun i -> Fs.mkdir fs ~dir:root (Printf.sprintf "d%d" i)) in
      let data = String.make 100 's' in
      ( 4,
        fun i ->
          let dir = dirs.(i mod 8) and name = Printf.sprintf "f%d" (i mod 64) in
          let ino = Fs.create fs ~dir name in
          Fs.write fs ~ino ~off:0 data;
          ignore (Fs.read fs ~ino ~off:0 ~len:(String.length data));
          Fs.unlink fs ~dir name )
    end
    else begin
      let ino = Fs.create fs ~dir:root "big" in
      let chunk = String.make 4096 'L' in
      ( 65,
        fun _ ->
          for c = 0 to 63 do
            Fs.write fs ~ino ~off:(c * 4096) chunk
          done;
          Fs.truncate fs ~ino ~len:0 )
    end
  in
  let cycles = max 1 (fs_ops / per_cycle) in
  let fields = window ~warmup:1 ~steps:cycles ~ops:(cycles * per_cycle) e step in
  (match Fs_check.fsck fs with
  | Ok () -> ()
  | Error err -> fail "%s/%s: post-run fsck: %s" engine workload err);
  [ ("part", S "fs"); ("engine", S engine); ("workload", S workload) ] @ fields

(* --- 1M-record scale ------------------------------------------------------ *)

let scale_records = 1_000_000

let scale_ops = 20_000

let scale_cell (engine, kind) (wl_name, wl) =
  (* YCSB-E inserts 5% of its ops, so it gets heap headroom on top. *)
  let heap_bytes = (scale_records * 1024) + if wl = Ycsb.E then 64 * 1024 * 1024 else 0 in
  let e, kv = ycsb_store ~config:(kv_config ~heap_bytes) ~kind ~records:scale_records in
  let w = Ycsb.create wl ~record_count:scale_records ~theta:0.99 in
  let rng = Rng.create 777 in
  let read k = ignore (Kv.get kv k) in
  let fields = window ~warmup:64 ~steps:scale_ops ~ops:scale_ops e (ycsb_step ~read kv w rng) in
  [
    ("part", S "scale");
    ("engine", S engine);
    ("workload", S wl_name);
    ("records", I scale_records);
  ]
  @ fields

(* --- main ----------------------------------------------------------------- *)

(* Prints an fs or scale cell and fails the run if it did no work. *)
let counted c =
  let ops = int_of_float (float_field c "ops") in
  let name k = match List.assoc k c with S s -> s | _ -> "" in
  if ops = 0 then
    fail "%s %s/%s completed zero operations" (name "part") (name "engine") (name "workload");
  Printf.printf "  %-14s %-9s %8d ops  %9.1f sim-ns/op  %7.1f words/op  %9.0f ops/s\n%!"
    (name "engine") (name "workload") ops (float_field c "sim_ns_per_op")
    (float_field c "words_per_op") (float_field c "wall_ops_per_s");
  c

let () =
  let out = ref "BENCH_gates.json" in
  Arg.parse
    [ ("--out", Arg.Set_string out, "PATH  output JSON (default BENCH_gates.json)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "gates.exe [--out PATH]";
  let cores = Domain.recommended_domain_count () in
  let reads = snapshot_reads () in
  let shards = shards ~cores in
  Printf.printf "filesystem: ~%d fs ops per cell\n%!" fs_ops;
  let fs =
    List.concat_map
      (fun kind -> List.map (fun wl -> counted (fs_cell kind wl)) [ "smallfile"; "largefile" ])
      fs_kinds
  in
  Printf.printf "scale: %d records, %d ops per cell\n%!" scale_records scale_ops;
  let scale =
    List.concat_map
      (fun kind ->
        List.map
          (fun wl ->
            (* Free the previous cell's 1 GB heap before building the next. *)
            Gc.full_major ();
            counted (scale_cell kind wl))
          [ ("ycsb-a", Ycsb.A); ("ycsb-e", Ycsb.E) ])
      [ ("kamino-dyn-50", kamino_dyn 0.5); ("undo-logging", Engine.Undo_logging) ]
  in
  let cells = reads @ shards @ fs @ scale in
  let oc = open_out !out in
  let json_list l = String.concat ", " (List.rev_map json_string l) in
  Printf.fprintf oc
    "{\n  \"schema\": \"kamino-gates-v2\",\n  \"ocaml\": %s,\n  \"cores\": %d,\n  \
     \"wall_floor\": %.2f,\n  \"failures\": [%s],\n  \"wall_failures\": [%s],\n  \
     \"cells\": [\n%s\n  ]\n}\n"
    (json_string Sys.ocaml_version) cores wall_floor (json_list !failures)
    (json_list !wall_failures)
    (String.concat ",\n" (List.map json_of_cell cells));
  close_out oc;
  Printf.printf "wrote %s (%d cells, %d failures, %d wall failures)\n" !out (List.length cells)
    (List.length !failures) (List.length !wall_failures);
  if !failures <> [] then exit 1
