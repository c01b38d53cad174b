(* kamino — command-line driver for the Kamino-Tx simulation stack.

   Subcommands:
     ycsb     run a YCSB workload against the key-value store
     tpcc     run the TPC-C-lite mix
     fuzz     random KV transactions with crash injection, verified per seed
     chain    run a replicated (chain) workload
     chaos    random fault schedules against the replicated chain
     cluster  random fault schedules against the sharded chain cluster
     fs       run a filesystem workload over lib/fs, fsck it, dump the tree
     trace    run a traced YCSB workload, export a Perfetto timeline
     info     print the cost model and storage layout constants *)

module Rng = Kamino_sim.Rng
module Clock = Kamino_sim.Clock
module Cost_model = Kamino_nvm.Cost_model
module Heap = Kamino_heap.Heap
module Engine = Kamino_core.Engine
module Backup = Kamino_core.Backup
module Kv = Kamino_kv.Kv
module Ycsb = Kamino_workload.Ycsb
module Driver = Kamino_workload.Driver
module Tpcc = Kamino_workload.Tpcc
module Async = Kamino_chain.Async_chain
module Op = Kamino_chain.Op
module Cchaos = Kamino_chaos.Cluster_chaos
module Shard = Kamino_shard.Shard
module Shard_kv = Kamino_shard.Shard_kv
module Shard_driver = Kamino_shard.Shard_driver
module Obs = Kamino_obs.Obs
module Metrics = Kamino_obs.Metrics
module Sink = Kamino_obs.Sink
module Fs = Kamino_fs.Fs
module Fs_check = Kamino_fs.Fs_check
open Cmdliner

(* --- shared arguments ----------------------------------------------------- *)

let engine_kind_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "no-logging" | "nolog" -> Ok Engine.No_logging
    | "undo" | "undo-logging" -> Ok Engine.Undo_logging
    | "cow" -> Ok Engine.Cow
    | "kamino" | "kamino-simple" -> Ok Engine.Kamino_simple
    | s -> (
        (* kamino-dynamic:<alpha> *)
        match String.split_on_char ':' s with
        | [ "kamino-dynamic"; a ] -> (
            match float_of_string_opt a with
            | Some alpha when alpha > 0.0 && alpha <= 1.0 ->
                Ok (Engine.Kamino_dynamic { alpha; policy = Backup.Lru_policy })
            | _ -> Error (`Msg "alpha must be in (0,1]"))
        | _ ->
            Error
              (`Msg
                 "expected no-logging | undo | cow | kamino | kamino-dynamic:<alpha>"))
  in
  Arg.conv (parse, fun fmt k -> Format.pp_print_string fmt (Engine.kind_name k))

let engine_arg =
  Arg.(
    value
    & opt engine_kind_conv Engine.Kamino_simple
    & info [ "e"; "engine" ] ~docv:"ENGINE"
        ~doc:
          "Transaction engine: no-logging, undo, cow, kamino, or \
           kamino-dynamic:<alpha> (e.g. kamino-dynamic:0.3).")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic RNG seed.")

let clients_arg =
  Arg.(value & opt int 4 & info [ "c"; "clients" ] ~docv:"N" ~doc:"Concurrent clients.")

let ops_arg =
  Arg.(value & opt int 10_000 & info [ "n"; "ops" ] ~docv:"OPS" ~doc:"Operations to run.")

let records_arg =
  Arg.(
    value & opt int 10_000
    & info [ "r"; "records" ] ~docv:"N" ~doc:"Preloaded keys in the store.")

let heap_mb_arg =
  Arg.(value & opt int 48 & info [ "heap-mb" ] ~docv:"MB" ~doc:"Main heap size in MiB.")

let config_of heap_mb =
  {
    Engine.default_config with
    Engine.heap_bytes = heap_mb * 1024 * 1024;
    log_slots = 512;
    data_log_bytes = 16 * 1024 * 1024;
  }

let print_metrics e =
  let m = Engine.metrics e in
  Printf.printf
    "engine: %d committed, %d aborted, %d critical-path copies, %d backup misses, %d \
     applier tasks, %.1f us total lock wait, %.1f MB NVM\n"
    m.Engine.committed m.Engine.aborted m.Engine.critical_path_copies m.Engine.backup_misses
    m.Engine.applier_tasks
    (float_of_int m.Engine.lock_wait_ns /. 1e3)
    (float_of_int m.Engine.storage_bytes /. 1e6);
  Printf.printf
    "coalescing: %d ranges coalesced, %d tasks batched, %d copy bytes saved\n"
    m.Engine.ranges_coalesced m.Engine.tasks_batched m.Engine.bytes_saved

(* Latency histograms, in the table [Sink.summary] prints. *)
let print_hists hists =
  let buf = Buffer.create 512 in
  Sink.hist_rows buf hists;
  print_string (Buffer.contents buf)

(* Printed only when the run actually issued snapshot reads. *)
let print_snapshot_summary e =
  let m = Engine.metrics e in
  if m.Engine.snapshot_hits > 0 || m.Engine.snapshot_fallbacks > 0 then begin
    let h = Metrics.hist (Engine.registry e) "engine.snapshot_staleness_ns" in
    Printf.printf
      "snapshot reads: %d backup hits, %d locked fallbacks, staleness p50/p99/max \
       %d/%d/%d ns\n"
      m.Engine.snapshot_hits m.Engine.snapshot_fallbacks
      (Metrics.percentile h 50.0)
      (Metrics.percentile h 99.0)
      (Metrics.max_value h)
  end

let workload_conv =
  Arg.conv
    ( (fun s ->
        match Ycsb.workload_of_string s with
        | Some w -> Ok w
        | None -> Error (`Msg "expected one of A B C D E F")),
      fun fmt w -> Format.pp_print_string fmt (Ycsb.name w) )

let workload_arg =
  Arg.(
    value & opt workload_conv Ycsb.A
    & info [ "w"; "workload" ] ~docv:"WL" ~doc:"YCSB workload.")

(* Shared between [ycsb] and [trace]: preload [records] keys, then stream
   [ops] YCSB operations. [after_load] runs between the two phases (the
   trace command resets the event ring there so the timeline covers only
   the measured workload). *)
let run_ycsb ?(after_load = ignore) ?(snapshot_reads = false) e ~kind ~workload
    ~clients ~ops ~records ~seed =
  let kv = Kv.create e ~value_size:1024 ~node_size:4096 in
  let payload = String.make 1000 'v' in
  Printf.printf "loading %d records...\n%!" records;
  Kv.load kv ~count:records ~key:Fun.id ~value:(fun _ -> payload);
  Engine.drain_backup e;
  after_load ();
  (* Snapshot reads run on their own clock: they serve from the backup at
     the watermark without locks, so their cost never lands on the
     writers' timeline (reported read latency is the reader's). *)
  let reader = Clock.create_at (Engine.now e) in
  let read kv k =
    if snapshot_reads then ignore (Kv.snapshot_get ~clock:reader kv k)
    else ignore (Kv.get kv k)
  in
  let wl = Ycsb.create workload ~record_count:records ~theta:0.99 in
  let rng = Rng.create (seed + 1) in
  Printf.printf "running YCSB-%s: %d ops, %d clients, engine %s%s\n%!"
    (Ycsb.name workload) ops clients (Engine.kind_name kind)
    (if snapshot_reads then ", snapshot reads" else "");
  Driver.run ~engine:e ~clients ~total_ops:ops ~step:(fun ~client:_ () ->
      match Ycsb.next wl rng with
      | Ycsb.Read k ->
          read kv k;
          "read"
      | Ycsb.Update k ->
          Kv.put kv k payload;
          "update"
      | Ycsb.Insert k ->
          Kv.put kv k payload;
          "insert"
      | Ycsb.Scan (k, n) ->
          ignore (Kv.scan kv ~lo:k ~count:n (fun _ _ -> ()));
          "scan"
      | Ycsb.Rmw k ->
          ignore (Kv.read_modify_write kv k Fun.id);
          "rmw")
  |> fun r ->
  (* Refresh the structural gauges (btree.depth) so metric summaries
     printed after the run see the final tree shape. *)
  Kv.sync_gauges kv;
  r

(* --- ycsb ------------------------------------------------------------------ *)

(* Sharded variant of [run_ycsb]: clients are pinned round-robin to home
   shards and draw keys from their shard's slice of the hash-routed key
   space, so every operation is a single-shard transaction and each
   shard's timeline is a standalone engine run. *)
let run_ycsb_sharded ?(snapshot_reads = false) ?(domains = 1) ~config ~kind ~workload
    ~shards ~clients ~ops ~records ~seed () =
  let s = Shard.create ~config ~kind ~seed ~shards () in
  let kv = Shard_kv.create s ~value_size:1024 ~node_size:4096 in
  let payload = String.make 1000 'v' in
  Printf.printf "loading %d records over %d shards...\n%!" records shards;
  for k = 0 to records - 1 do
    Shard_kv.put kv k payload
  done;
  Shard.drain_backups s;
  let own = Array.make shards [] in
  for k = records - 1 downto 0 do
    own.(Shard.route s k) <- k :: own.(Shard.route s k)
  done;
  let own = Array.map Array.of_list own in
  let wls =
    Array.map
      (fun keys -> Ycsb.create workload ~record_count:(Array.length keys) ~theta:0.99)
      own
  in
  let rngs = Array.init clients (fun c -> Rng.create (seed + 1 + c)) in
  let reader = Clock.create_at 0 in
  let read store k =
    if snapshot_reads then ignore (Kv.snapshot_get ~clock:reader store k)
    else ignore (Kv.get store k)
  in
  Printf.printf "running YCSB-%s: %d ops, %d clients, %d shards, %d domains, engine %s%s\n%!"
    (Ycsb.name workload) ops clients shards domains (Engine.kind_name kind)
    (if snapshot_reads then ", snapshot reads" else "");
  let r =
    Shard_driver.run ~domains ~shard:s ~clients ~total_ops:ops
      ~step:(fun ~client ~shard_id () ->
        let keys = own.(shard_id) in
        (* Inserts (workloads D/E) grow the generator's key space past the
           loaded slice; fold them back onto owned keys. *)
        let key r = keys.(r mod Array.length keys) in
        let store = Shard_kv.store kv shard_id in
        match Ycsb.next wls.(shard_id) rngs.(client) with
        | Ycsb.Read k ->
            read store (key k);
            "read"
        | Ycsb.Update k ->
            Kv.put store (key k) payload;
            "update"
        | Ycsb.Insert k ->
            Kv.put store (key k) payload;
            "insert"
        | Ycsb.Scan (k, n) ->
            ignore (Kv.scan store ~lo:(key k) ~count:n (fun _ _ -> ()));
            "scan"
        | Ycsb.Rmw k ->
            ignore (Kv.read_modify_write store (key k) Fun.id);
            "rmw")
      ()
  in
  (s, r)

let shards_arg =
  Arg.(
    value & opt int 1
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Partition the heap across $(docv) independent engine shards (per-shard \
           region, intent log, backup, applier and clock). Clients are pinned \
           round-robin to home shards; every operation is a single-shard \
           transaction. Requires $(docv) >= 1; 1 runs the standalone engine.")

let domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"D"
        ~doc:
          "Run the shard lanes on $(docv) OCaml domains (real cores, clamped to the \
           shard count). Simulated results are bit-identical to $(docv)=1 — only \
           wall-clock time changes. Only meaningful together with $(b,--shards).")

let snapshot_reads_arg =
  Arg.(
    value & flag
    & info [ "snapshot-reads" ]
        ~doc:
          "Serve Read operations from the backup heap at the applier's commit \
           watermark (lock-free, on a dedicated reader clock) instead of through \
           locked transactions. Engines without a full backup fall back to the \
           locked path.")

let ycsb_cmd =
  let run kind workload shards domains clients ops records heap_mb seed snapshot_reads =
    if domains > 1 && shards <= 1 then begin
      prerr_endline "kamino ycsb: --domains needs --shards >= 2 (nothing to parallelize)";
      exit 2
    end;
    if shards <= 1 then begin
      let e = Engine.create ~config:(config_of heap_mb) ~kind ~seed () in
      let r = run_ycsb ~snapshot_reads e ~kind ~workload ~clients ~ops ~records ~seed in
      Format.printf "%a@." Driver.pp_result r;
      print_hists r.Driver.latencies;
      print_metrics e;
      print_snapshot_summary e
    end
    else begin
      let s, r =
        run_ycsb_sharded ~snapshot_reads ~domains ~config:(config_of heap_mb) ~kind
          ~workload ~shards ~clients ~ops ~records ~seed ()
      in
      Format.printf "%a@." Driver.pp_result r;
      print_hists r.Driver.latencies;
      for i = 0 to Shard.shards s - 1 do
        Printf.printf "shard %d: " i;
        print_metrics (Shard.engine s i);
        print_snapshot_summary (Shard.engine s i)
      done
    end
  in
  let term =
    Term.(
      const run $ engine_arg $ workload_arg $ shards_arg $ domains_arg $ clients_arg
      $ ops_arg $ records_arg $ heap_mb_arg $ seed_arg $ snapshot_reads_arg)
  in
  Cmd.v
    (Cmd.info "ycsb"
       ~doc:
         "Run a YCSB workload (A-F) against the key-value store: $(b,--records) keys \
          are preloaded, then $(b,--ops) operations stream from $(b,--clients) \
          simulated clients in deterministic virtual time. $(b,--shards) partitions \
          the heap across independent engines and $(b,--domains) executes the shards \
          on real OCaml domains with bit-identical simulated results. Reports \
          simulated throughput, per-operation latency histograms and engine metrics.")
    term

(* --- trace ------------------------------------------------------------------ *)

let trace_cmd =
  let out_arg =
    Arg.(
      value & opt string "trace.json"
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write Chrome/Perfetto trace-event JSON to $(docv).")
  in
  let ring_arg =
    Arg.(
      value & opt int 65536
      & info [ "ring" ] ~docv:"SLOTS"
          ~doc:
            "Event-ring capacity; once full, the oldest events are overwritten \
             (the drop count is reported).")
  in
  let run kind workload clients ops records heap_mb seed out ring =
    let obs = Obs.create ~capacity:ring () in
    let e = Engine.create ~config:(config_of heap_mb) ~obs ~kind ~seed () in
    let r =
      run_ycsb e ~kind ~workload ~clients ~ops ~records ~seed ~after_load:(fun () ->
          Obs.reset obs)
    in
    Format.printf "%a@." Driver.pp_result r;
    print_string (Sink.summary_string ~obs (Engine.registry e));
    Sink.write_perfetto_file out obs;
    Printf.printf
      "trace: %s — %d events held, %d dropped; open it at https://ui.perfetto.dev \
       or chrome://tracing\n"
      out (Obs.length obs) (Obs.dropped obs)
  in
  let term =
    Term.(
      const run $ engine_arg $ workload_arg $ clients_arg $ ops_arg $ records_arg
      $ heap_mb_arg $ seed_arg $ out_arg $ ring_arg)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a YCSB workload with event tracing on and export a Perfetto timeline \
          plus a metrics summary (counters, sim-time histograms).")
    term

(* --- tpcc ------------------------------------------------------------------ *)

let tpcc_cmd =
  let run kind clients ops heap_mb seed =
    let e = Engine.create ~config:(config_of heap_mb) ~kind ~seed () in
    let rng = Rng.create (seed + 1) in
    let t =
      Tpcc.setup e ~warehouses:2 ~districts_per_w:10 ~customers_per_district:60 ~items:1000
        ~rng
    in
    Printf.printf "running %d TPC-C transactions, %d clients, engine %s\n%!" ops clients
      (Engine.kind_name kind);
    let r =
      Driver.run ~engine:e ~clients ~total_ops:ops ~step:(fun ~client:_ () ->
          Tpcc.kind_name (Tpcc.run_mix t rng))
    in
    Format.printf "%a@." Driver.pp_result r;
    (match Tpcc.consistency_check t with
    | Ok () -> Printf.printf "TPC-C consistency: OK\n"
    | Error e -> Printf.printf "TPC-C consistency VIOLATED: %s\n" e);
    print_metrics e
  in
  let term =
    Term.(const run $ engine_arg $ clients_arg $ ops_arg $ heap_mb_arg $ seed_arg)
  in
  Cmd.v (Cmd.info "tpcc" ~doc:"Run the TPC-C-lite transaction mix.") term

(* --- chain ------------------------------------------------------------------ *)

let chain_cmd =
  let mode_arg =
    let mode_conv =
      Arg.conv
        ( (fun s ->
            match String.lowercase_ascii s with
            | "traditional" -> Ok Async.Traditional
            | "kamino" -> Ok (Async.Kamino_chain { alpha = None })
            | s -> (
                match String.split_on_char ':' s with
                | [ "kamino"; a ] -> (
                    match float_of_string_opt a with
                    | Some alpha -> Ok (Async.Kamino_chain { alpha = Some alpha })
                    | None -> Error (`Msg "bad alpha"))
                | _ -> Error (`Msg "expected traditional | kamino | kamino:<alpha>"))),
          fun fmt -> function
            | Async.Traditional -> Format.pp_print_string fmt "traditional"
            | Async.Kamino_chain { alpha = None } -> Format.pp_print_string fmt "kamino"
            | Async.Kamino_chain { alpha = Some a } ->
                Format.fprintf fmt "kamino:%.2f" a )
    in
    Arg.(
      value
      & opt mode_conv (Async.Kamino_chain { alpha = None })
      & info [ "m"; "mode" ] ~docv:"MODE" ~doc:"traditional | kamino | kamino:<alpha>")
  in
  let f_arg =
    Arg.(value & opt int 2 & info [ "f" ] ~docv:"F" ~doc:"Failures to tolerate.")
  in
  let run mode f ops records seed =
    let hop_ns = 5000 in
    let c =
      Async.create
        ~engine_config:{ Engine.default_config with Engine.heap_bytes = 16 * 1024 * 1024 }
        ~hop_ns ~mode ~f ~value_size:1024 ~node_size:4096 ~seed ()
    in
    Printf.printf "chain with %d replicas, loading %d records...\n%!" (Async.length c)
      records;
    let payload = String.make 1000 'v' in
    let rec load k at =
      if k < records then Async.submit c ~at (Op.Put (k, payload)) ~on_complete:(load (k + 1))
    in
    load 0 0;
    ignore (Async.run c);
    let rng = Rng.create (seed + 1) in
    let start = Kamino_sim.Engine.now (Async.sim c) in
    let lat = Metrics.create () in
    let reads = Metrics.hist lat "read" and writes = Metrics.hist lat "write" in
    (* One closed-loop client. A Kamino-Tx client lives on the head; a
       Traditional one pays the hop to the head on writes. Reads pay the
       hop to the tail. *)
    let write_hop = match mode with Async.Traditional -> hop_ns | Async.Kamino_chain _ -> 0 in
    let finish = ref start in
    let rec step i t0 =
      finish := t0;
      if i < ops then begin
        let k = Rng.int rng records in
        let record hist t1 =
          Metrics.observe hist (t1 - t0);
          step (i + 1) t1
        in
        if Rng.bool rng then
          Async.submit c ~at:(t0 + write_hop) (Op.Put (k, payload)) ~on_complete:(record writes)
        else Async.read c ~at:(t0 + hop_ns) k ~on_result:(fun _ -> record reads)
      end
    in
    step 0 start;
    ignore (Async.run c);
    print_hists [ ("read", reads); ("write", writes) ];
    Printf.printf "%.1f K ops/s (single closed-loop client), %.0f MB cluster NVM\n"
      (float_of_int ops /. (float_of_int (!finish - start) /. 1e9) /. 1e3)
      (float_of_int (Async.storage_bytes c) /. 1e6);
    match Async.replicas_consistent c with
    | Ok () -> Printf.printf "replicas: consistent\n"
    | Error e ->
        Printf.printf "replicas: INCONSISTENT (%s)\n" e;
        exit 1
  in
  let term = Term.(const run $ mode_arg $ f_arg $ ops_arg $ records_arg $ seed_arg) in
  Cmd.v (Cmd.info "chain" ~doc:"Run a replicated chain workload.") term

(* --- fuzz ------------------------------------------------------------------- *)

let fuzz_cmd =
  let seeds_arg =
    Arg.(
      value & opt int 50
      & info [ "seeds" ] ~docv:"N" ~doc:"Distinct RNG seeds to fuzz: SEED, SEED+1, ...")
  in
  let rounds_arg =
    Arg.(
      value & opt int 100 & info [ "rounds" ] ~docv:"N" ~doc:"Transactions per seed.")
  in
  let run kind first seeds rounds =
    (match kind with
    | Engine.No_logging | Engine.Intent_only ->
        prerr_endline "fuzz requires an engine that can recover";
        exit 1
    | _ -> ());
    let failures = ref 0 in
    for seed = first to first + seeds - 1 do
      let e =
        Engine.create ~config:(config_of 8) ~kind ~seed ()
      in
      let kv = ref (Kv.create e ~value_size:256 ~node_size:512) in
      let rng = Rng.create (seed * 7919) in
      let model = Hashtbl.create 64 in
      (try
         for round = 1 to rounds do
           let k = Rng.int rng 100 in
           (match Rng.int rng 4 with
           | 0 ->
               let v = Printf.sprintf "s%dr%d" seed round in
               Kv.put !kv k v;
               Hashtbl.replace model k v
           | 1 ->
               ignore (Kv.delete !kv k);
               Hashtbl.remove model k
           | 2 -> ignore (Kv.read_modify_write !kv k (fun s -> s ^ "."));
                  (match Hashtbl.find_opt model k with
                   | Some v -> Hashtbl.replace model k (v ^ ".")
                   | None -> ())
           | _ -> ignore (Kv.get !kv k));
           if Rng.int rng 10 = 0 then begin
             Engine.crash e;
             Engine.recover e;
             kv := Kv.reattach e
           end
         done;
         Engine.drain_backup e;
         let ok = ref true in
         Hashtbl.iter (fun k v -> if Kv.get !kv k <> Some v then ok := false) model;
         if Kv.validate !kv <> Ok () then ok := false;
         (match Engine.verify_backup e with Ok () -> () | Error _ -> ok := false);
         if not !ok then begin
           incr failures;
           Printf.printf "seed %d: FAILED (state diverged)\n%!" seed
         end
       with exn ->
         incr failures;
         Printf.printf "seed %d: EXCEPTION %s\n%!" seed (Printexc.to_string exn))
    done;
    if !failures = 0 then
      Printf.printf "fuzz: %d seeds x %d rounds with crash injection — all consistent\n"
        seeds rounds
    else begin
      Printf.printf "fuzz: %d of %d seeds FAILED\n" !failures seeds;
      exit 1
    end
  in
  let term = Term.(const run $ engine_arg $ seed_arg $ seeds_arg $ rounds_arg) in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Fuzz an engine across many seeds: random KV transactions, random crash \
          injection, and per seed the committed keys, the store's structure and \
          the backup verified; exits 1 on any divergence. $(b,--seed) S \
          $(b,--seeds) 1 replays seed S.")
    term

(* --- chaos campaigns: chaos, cluster --------------------------------------- *)

let faults_arg =
  Arg.(value & opt int 6 & info [ "faults" ] ~docv:"N" ~doc:"Faults drawn per schedule.")

let sweep_arg =
  Arg.(
    value & opt int 0
    & info [ "sweep" ] ~docv:"N"
        ~doc:"Explore $(docv) consecutive seeds instead of a single run.")

let schedule_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "schedule" ] ~docv:"FILE"
        ~doc:"Replay a serialized fault schedule instead of drawing one.")

let out_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out-dir" ] ~docv:"DIR"
        ~doc:"Write failing schedules and histories here as artifacts.")

let history_arg =
  Arg.(
    value & flag & info [ "history" ] ~doc:"Print the full run record, not just the verdict.")

let broken_arg ~oracles =
  Arg.(
    value & flag
    & info [ "broken-recovery" ]
        ~doc:
          ("Deliberately forget the in-flight window on reboot (oracle self-test: the "
         ^ oracles ^ " must catch this)."))

(* The driver both campaign subcommands share: schedule-file replay, seed
   sweep or single run, then shrinking and artifacts for each failure.
   The subcommand supplies its wording: [pass] summarizes a passing sweep
   seed, [footer] ends a sweep, [headline] and [detail] frame a single
   run, [artifact] prefixes artifact file names. [trace] applies to a
   single run or a replay, never to a sweep. *)
let run_campaign campaign ~artifact ~pass ~footer ~headline ~detail ~trace seed ops
    faults sweep schedule_file out_dir history broken =
  let recovery_fault =
    if broken then Async.Drop_inflight_on_reboot else Async.No_fault
  in
  let obs = match trace with Some _ -> Obs.create () | None -> Obs.null in
  let write_trace () =
    Option.iter
      (fun path ->
        Sink.write_perfetto_file path obs;
        Printf.printf "trace: %s — %d events held, %d dropped\n%!" path
          (Obs.length obs) (Obs.dropped obs))
      trace
  in
  let save_artifacts dir (o : Cchaos.outcome) shrunk =
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let base = Printf.sprintf "%s/%s-seed%d" dir artifact o.seed in
    let write path s =
      let oc = open_out path in
      output_string oc s;
      close_out oc
    in
    write (base ^ ".schedule") (Cchaos.schedule_to_string shrunk);
    write (base ^ ".history") o.history;
    Printf.printf "  artifacts: %s.{schedule,history}\n%!" base
  in
  let report_failure (o : Cchaos.outcome) =
    let shrunk = Cchaos.shrink ~recovery_fault campaign ~seed:o.seed ~ops o.schedule in
    Printf.printf "  shrunk to %d fault(s):\n%s%!" (List.length shrunk)
      (String.concat ""
         (List.map (fun f -> "    " ^ Cchaos.fault_to_string f ^ "\n") shrunk));
    Option.iter (fun dir -> save_artifacts dir o shrunk) out_dir
  in
  match schedule_file with
  | Some path -> (
      let ic = open_in path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Cchaos.schedule_of_string s with
      | Error e ->
          Printf.eprintf "bad schedule file: %s\n" e;
          exit 2
      | Ok schedule ->
          let o = Cchaos.run ~recovery_fault ~obs campaign ~seed ~ops ~schedule () in
          print_string o.history;
          write_trace ();
          if o.verdict <> Ok () then exit 1)
  | None when sweep > 0 ->
      let failures = ref 0 in
      for s = seed to seed + sweep - 1 do
        let o = Cchaos.explore ~recovery_fault ~ops ~faults campaign ~seed:s () in
        match o.verdict with
        | Ok () -> Printf.printf "seed %d: PASS (%s)\n%!" s (pass o)
        | Error e ->
            incr failures;
            Printf.printf "seed %d: FAIL — %s\n%!" s e;
            report_failure o
      done;
      print_endline (footer ~seeds:sweep ~failures:!failures);
      if !failures > 0 then exit 1
  | None ->
      let o = Cchaos.explore ~recovery_fault ~obs ~ops ~faults campaign ~seed () in
      if history then print_string o.history
      else begin
        Printf.printf "%s: %s\n" (headline o)
          (match o.verdict with Ok () -> "PASS" | Error e -> "FAIL — " ^ e);
        print_string (detail o)
      end;
      write_trace ();
      if o.verdict <> Ok () then begin
        report_failure o;
        exit 1
      end

let chaos_cmd =
  let mode_conv =
    Arg.conv
      ( (fun s ->
          match Cchaos.mode_of_string s with
          | Some m -> Ok m
          | None -> Error (`Msg "expected traditional | kamino")),
        fun fmt m -> Format.pp_print_string fmt (Cchaos.mode_name m) )
  in
  let mode_arg =
    Arg.(
      value
      & opt mode_conv (Async.Kamino_chain { alpha = None })
      & info [ "m"; "mode" ] ~docv:"MODE" ~doc:"traditional | kamino")
  in
  let ops_arg =
    Arg.(value & opt int 40 & info [ "n"; "ops" ] ~docv:"OPS" ~doc:"Client operations per run.")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome/Perfetto timeline of the run to $(docv): chain hops, \
             view changes, promotions, per-node engine events, and one instant per \
             injected fault. Applies to a single run or a $(b,--schedule) replay, \
             not to $(b,--sweep).")
  in
  let run mode trace =
    let name = Cchaos.mode_name mode in
    run_campaign (Cchaos.Chain_campaign mode) ~trace
      ~artifact:("chaos-" ^ name)
      ~pass:(fun o ->
        Printf.sprintf "%d events, %d/%d acked, %d reads, %d stale drops, %d survivors"
          o.events o.acked o.submitted o.reads o.stale_drops
          (List.length (List.concat o.survivors)))
      ~footer:(fun ~seeds ~failures ->
        Printf.sprintf "chaos sweep: %d seeds, %d failure(s), mode %s" seeds failures name)
      ~headline:(fun o -> Printf.sprintf "mode=%s seed=%d ops=%d" name o.seed o.ops)
      ~detail:(fun o ->
        Printf.sprintf
          "  %d events, %d submitted, %d acked, %d reads, %d stale drops, survivors [%s]\n"
          o.events o.submitted o.acked o.reads o.stale_drops
          (String.concat ";" (List.map string_of_int (List.concat o.survivors))))
  in
  let term =
    Term.(
      const run $ mode_arg $ trace_arg $ seed_arg $ ops_arg $ faults_arg $ sweep_arg
      $ schedule_arg $ out_dir_arg $ history_arg
      $ broken_arg ~oracles:"durable-prefix oracle")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Explore random fault schedules against the replicated chain and check the \
          linearizability and durable-prefix oracles.")
    term

let cluster_cmd =
  let ops_arg =
    Arg.(
      value & opt int 30
      & info [ "n"; "ops" ] ~docv:"OPS"
          ~doc:"Client operations per run (writes, cross-shard multi_puts, reads).")
  in
  let campaign = Cchaos.Cluster_campaign in
  let summary (o : Cchaos.outcome) =
    Printf.sprintf
      "%d events, %d/%d writes acked, %d/%d multis acked (%d cross-chain), %d \
       redrives, %d reads, %d stale drops, commit p50/p95/p99 = %d/%d/%d ns"
      o.events o.acked o.submitted o.multis_acked o.multis o.crossed o.redrives o.reads
      o.stale_drops o.p50_ns o.p95_ns o.p99_ns
  in
  let run =
    run_campaign campaign ~trace:None ~artifact:"cluster" ~pass:summary
      ~footer:(fun ~seeds ~failures ->
        Printf.sprintf "cluster sweep: %d seeds, %d failure(s)" seeds failures)
      ~headline:(fun o ->
        Printf.sprintf "cluster seed=%d ops=%d shards=%d f=%d" o.seed o.ops
          (Cchaos.shards campaign) (Cchaos.f campaign))
      ~detail:(fun o -> Printf.sprintf "  %s\n  fingerprint %s\n" (summary o)
          (Lazy.force o.fingerprint))
  in
  let term =
    Term.(
      const run $ seed_arg $ ops_arg $ faults_arg $ sweep_arg $ schedule_arg
      $ out_dir_arg $ history_arg
      $ broken_arg ~oracles:"cluster oracles")
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "Explore random fault schedules against the replicated shard-cluster \
          (chain-per-shard, cross-shard 2PC over chain heads) and check the \
          durable-prefix, cluster-atomicity, linearizability and quiescence \
          oracles.")
    term

(* --- fs --------------------------------------------------------------------- *)

let fs_cmd =
  let rounds_arg =
    Arg.(
      value & opt int 2_000
      & info [ "n"; "ops" ] ~docv:"OPS" ~doc:"Filesystem operations to run.")
  in
  let crashes_arg =
    Arg.(
      value & opt ~vopt:20 int 0
      & info [ "crashes" ] ~docv:"N"
          ~doc:
            "Inject N crash/recover/fsck cycles at operation boundaries during \
             the run.")
  in
  let dump_arg =
    Arg.(
      value & flag
      & info [ "dump" ] ~doc:"Print the directory tree after the run.")
  in
  let block_size_arg =
    Arg.(
      value & opt int 512
      & info [ "block-size" ] ~docv:"BYTES"
          ~doc:
            "Data-block size: a multiple of 8, at most the largest heap object \
             less one inode. A file's block 0 lives in its inode object, so this \
             also sets the inode object's size class.")
  in
  let run kind heap_mb seed rounds crashes dump block_size =
    let e = Engine.create ~config:(config_of heap_mb) ~kind ~seed () in
    let fs =
      try Fs.format ~block_size ~dir_hash_bits:6 e
      with Invalid_argument m ->
        prerr_endline m;
        exit 2
    in
    let root = Fs.root_ino fs in
    let rng = Rng.create (seed + 1) in
    let dirs = ref [ root ] in
    let files = ref [] in
    let pick l = List.nth l (Rng.int rng (List.length l)) in
    let gen_name tag = Printf.sprintf "%s%d" tag (Rng.int rng 40) in
    let ignore_fs_errors f = try f () with Fs.Fs_error _ -> () in
    let with_ino dir name f =
      match Fs.lookup fs ~dir name with Some ino -> f ino | None -> ()
    in
    let fsck ctx =
      match Fs_check.fsck fs with
      | Ok () -> ()
      | Error err ->
          Printf.eprintf "CORRUPTED (%s): %s\n" ctx err;
          exit 1
    in
    let crash_every = if crashes = 0 then max_int else max 1 (rounds / crashes) in
    let crashed = ref 0 in
    for round = 1 to rounds do
      (match Rng.int rng 10 with
      | 0 ->
          ignore_fs_errors (fun () ->
              dirs := Fs.mkdir fs ~dir:(pick !dirs) (gen_name "d") :: !dirs)
      | 1 | 2 ->
          ignore_fs_errors (fun () ->
              files := (pick !dirs, gen_name "f") :: !files;
              ignore (Fs.create fs ~dir:(fst (List.hd !files)) (snd (List.hd !files))))
      | 3 | 4 | 5 when !files <> [] ->
          let dir, name = pick !files in
          ignore_fs_errors (fun () ->
              with_ino dir name (fun ino ->
                  Fs.write fs ~ino ~off:(Rng.int rng 2048)
                    (Printf.sprintf "round-%d" round)))
      | 6 when !files <> [] ->
          let dir, name = pick !files in
          ignore_fs_errors (fun () ->
              with_ino dir name (fun ino ->
                  Fs.truncate fs ~ino ~len:(Rng.int rng 4096)))
      | 7 when !files <> [] ->
          let src, src_name = pick !files in
          let dst = pick !dirs and dst_name = gen_name "f" in
          ignore_fs_errors (fun () ->
              Fs.rename fs ~src ~src_name ~dst ~dst_name;
              files :=
                (dst, dst_name)
                :: List.filter (fun en -> en <> (src, src_name)) !files)
      | 8 when !files <> [] ->
          let dir, name = pick !files in
          ignore_fs_errors (fun () ->
              Fs.unlink fs ~dir name;
              files := List.filter (fun en -> en <> (dir, name)) !files)
      | _ -> ignore_fs_errors (fun () -> ignore (Fs.readdir fs ~dir:(pick !dirs))));
      if round mod crash_every = 0 && round < rounds then begin
        incr crashed;
        Engine.crash e;
        Engine.recover e;
        fsck (Printf.sprintf "after crash %d" !crashed)
      end
    done;
    Engine.drain_backup e;
    fsck "final";
    if dump then print_string (Fs.dump fs);
    let reg = Engine.registry e in
    let p op =
      let h = Metrics.hist reg ("fs.op_ns." ^ op) in
      if Metrics.count h = 0 then ""
      else
        Printf.sprintf "  %-8s %6d ops  p50/p95/p99 %d/%d/%d sim-ns\n" op
          (Metrics.count h)
          (Metrics.percentile h 50.0)
          (Metrics.percentile h 95.0)
          (Metrics.percentile h 99.0)
    in
    Printf.printf "%d fs ops on %s, %d boundary crashes injected: CONSISTENT\n" rounds
      (Engine.kind_name kind) !crashed;
    List.iter
      (fun op -> print_string (p op))
      [ "create"; "mkdir"; "write"; "truncate"; "rename"; "unlink"; "readdir"; "fsck" ];
    print_metrics e
  in
  let term =
    Term.(const run $ engine_arg $ heap_mb_arg $ seed_arg $ rounds_arg $ crashes_arg
          $ dump_arg $ block_size_arg)
  in
  Cmd.v
    (Cmd.info "fs"
       ~doc:
         "Run a random filesystem workload over the transactional inode layer, \
          optionally crash-injecting at operation boundaries, then fsck and \
          dump the tree.")
    term

(* --- info ------------------------------------------------------------------- *)

let info_cmd =
  let run () =
    Format.printf "cost model (NVDIMM-class default): %a@." Cost_model.pp Cost_model.default;
    Format.printf "cost model (3DXP-class):           %a@." Cost_model.pp Cost_model.slow_nvm;
    Printf.printf "heap size classes: %s\n"
      (String.concat ", " (Array.to_list (Array.map string_of_int Heap.size_classes)));
    Printf.printf "max object size: %d bytes\n" Heap.max_object_size
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Print cost-model and storage-layout constants.")
    Term.(const run $ const ())

let () =
  let doc = "Kamino-Tx: atomic in-place updates for non-volatile main memory (simulated)" in
  let cmd =
    Cmd.group (Cmd.info "kamino" ~doc)
      [
        ycsb_cmd;
        tpcc_cmd;
        fuzz_cmd;
        chain_cmd;
        chaos_cmd;
        cluster_cmd;
        fs_cmd;
        trace_cmd;
        info_cmd;
      ]
  in
  exit (Cmd.eval cmd)
