(* Sharded façade tests.

   - Router: deterministic, in range, spreads dense key spaces.
   - Isolation: each shard of an N-shard façade is bit-identical — same
     simulated clocks, same NVM counters — to a standalone engine created
     with the same derived seed and driven with the same sub-workload.
   - Scaling: the applier-bound uniform-key YCSB-A cell gains >= 2x
     aggregate simulated throughput at 4 shards (the acceptance gate the
     bench's `--shards` curve tracks in CI).
   - Parallel driver: bit-identical results, streams and traces across
     domain counts; clients stay on their home shard with fixed quotas;
     shard s runs on domain s mod domains; a raising step re-raises after
     every domain is joined, the first exception in domain order winning;
     a cross-shard transaction under several domains is refused, and
     allowed again once the run ends.
   - Cross-shard transactions: all-or-nothing with and without crashes,
     marker lifecycle, abort path. *)

module Rng = Kamino_sim.Rng
module Clock = Kamino_sim.Clock
module Cost_model = Kamino_nvm.Cost_model
module Region = Kamino_nvm.Region
module Commit_marker = Kamino_nvm.Commit_marker
module Engine = Kamino_core.Engine
module Kv = Kamino_kv.Kv
module Shard = Kamino_shard.Shard
module Shard_kv = Kamino_shard.Shard_kv
module Shard_driver = Kamino_shard.Shard_driver
module Metrics = Kamino_obs.Metrics
module Obs = Kamino_obs.Obs
module Sink = Kamino_obs.Sink
module Driver = Kamino_workload.Driver

let config =
  {
    Engine.default_config with
    Engine.heap_bytes = 8 * 1024 * 1024;
    log_slots = 8;
    data_log_bytes = 1 lsl 18;
    cost = Cost_model.slow_nvm;
  }

(* --- router ---------------------------------------------------------------- *)

let test_router () =
  List.iter
    (fun shards ->
      let counts = Array.make shards 0 in
      for key = 0 to 4095 do
        let i = Shard.route_key ~shards key in
        if i < 0 || i >= shards then
          Alcotest.failf "route_key ~shards:%d %d = %d out of range" shards key i;
        Alcotest.(check int)
          (Printf.sprintf "route_key %d deterministic" key)
          i
          (Shard.route_key ~shards key);
        counts.(i) <- counts.(i) + 1
      done;
      (* A dense key space must spread: no shard starved or hogging. *)
      Array.iteri
        (fun i c ->
          let fair = 4096 / shards in
          if c < fair / 2 || c > fair * 2 then
            Alcotest.failf "shards=%d: shard %d owns %d of 4096 keys (fair %d)"
              shards i c fair)
        counts)
    [ 1; 2; 4; 8 ]

(* --- per-shard isolation --------------------------------------------------- *)

(* The uniform-key YCSB-A cell from the bench, parameterized so the same
   client streams can drive a façade or a standalone mirror. *)
let payload = String.make 1000 'k'

let load_kv kv records =
  for k = 0 to records - 1 do
    Shard_kv.put kv k payload
  done;
  Shard.drain_backups (Shard_kv.shard kv)

let owned_keys s records =
  let own = Array.make (Shard.shards s) [] in
  for k = records - 1 downto 0 do
    own.(Shard.route s k) <- k :: own.(Shard.route s k)
  done;
  Array.map Array.of_list own

let step_op ~own ~rngs store ~client ~shard_id =
  let keys = own.(shard_id) in
  let rng = rngs.(client) in
  let k = keys.(Rng.int rng (Array.length keys)) in
  if Rng.int rng 100 < 50 then begin
    ignore (Kv.get store k);
    "read"
  end
  else begin
    Kv.put store k payload;
    "update"
  end

let run_sharded ?(domains = 1) ~shards ~clients ~total_ops ~records ~seed () =
  let s = Shard.create ~config ~kind:Engine.Kamino_simple ~seed ~shards () in
  let kv = Shard_kv.create s ~value_size:1024 ~node_size:1024 in
  load_kv kv records;
  let own = owned_keys s records in
  let rngs = Array.init clients (fun c -> Rng.create (777 + c)) in
  let r =
    Shard_driver.run ~domains ~shard:s ~clients ~total_ops
      ~step:(fun ~client ~shard_id () ->
        step_op ~own ~rngs (Shard_kv.store kv shard_id) ~client ~shard_id)
      ()
  in
  (s, r)

(* Standalone mirror of façade shard [target]: an engine created with the
   façade's derived seed, loaded with the shard's slice of the key space
   in the same order, driven by the same pinned clients (same rng streams,
   same quotas) in min-clock order. *)
let run_standalone ~shards ~clients ~total_ops ~records ~seed ~target =
  let e = Engine.create ~config ~kind:Engine.Kamino_simple ~seed:(seed + target) () in
  let kv = Kv.create e ~value_size:1024 ~node_size:1024 in
  (* Reconstruct the shard's key slice with the façade's router. *)
  let own_all = Array.make shards [] in
  for k = records - 1 downto 0 do
    own_all.(Shard.route_key ~shards k) <- k :: own_all.(Shard.route_key ~shards k)
  done;
  let own = Array.map Array.of_list own_all in
  Array.iter (fun k -> Kv.put kv k payload) own.(target);
  Engine.drain_backup e;
  let rngs = Array.init clients (fun c -> Rng.create (777 + c)) in
  let mine = List.filter (fun c -> c mod shards = target) (List.init clients Fun.id) in
  let quota =
    List.map
      (fun c -> (c, (total_ops / clients) + if c < total_ops mod clients then 1 else 0))
      mine
    |> List.to_seq |> Hashtbl.of_seq
  in
  let start = Engine.now e in
  let clocks =
    List.map (fun c -> (c, Clock.create_at start)) mine |> List.to_seq
    |> Hashtbl.of_seq
  in
  let remaining = ref (Hashtbl.fold (fun _ q acc -> acc + q) quota 0) in
  while !remaining > 0 do
    let client = ref (-1) and behind = ref max_int in
    List.iter
      (fun c ->
        let p = Clock.now (Hashtbl.find clocks c) - start in
        if Hashtbl.find quota c > 0 && p < !behind then begin
          client := c;
          behind := p
        end)
      mine;
    let c = !client in
    Hashtbl.replace quota c (Hashtbl.find quota c - 1);
    decr remaining;
    Engine.set_clock e (Hashtbl.find clocks c);
    ignore (step_op ~own ~rngs kv ~client:c ~shard_id:target)
  done;
  e

let counters_equal a b =
  a.Region.stores = b.Region.stores
  && a.Region.bytes_stored = b.Region.bytes_stored
  && a.Region.loads = b.Region.loads
  && a.Region.bytes_loaded = b.Region.bytes_loaded
  && a.Region.lines_flushed = b.Region.lines_flushed
  && a.Region.fences = b.Region.fences
  && a.Region.bytes_copied = b.Region.bytes_copied

let test_isolation () =
  let shards = 4 and clients = 8 and total_ops = 2000 and records = 1024 in
  let seed = 90210 in
  let s, _r = run_sharded ~shards ~clients ~total_ops ~records ~seed () in
  for target = 0 to shards - 1 do
    let solo = run_standalone ~shards ~clients ~total_ops ~records ~seed ~target in
    let se = Shard.engine s target in
    (* Same final simulated instant: the last client to run on the shard
       parks the engine clock, and both executions end on the same op. *)
    Alcotest.(check int)
      (Printf.sprintf "shard %d sim-ns equals standalone run" target)
      (Engine.now solo) (Engine.now se);
    Alcotest.(check int)
      (Printf.sprintf "shard %d committed count" target)
      (Engine.metrics solo).Engine.committed (Engine.metrics se).Engine.committed;
    if not (counters_equal (Engine.main_counters se) (Engine.main_counters solo)) then
      Alcotest.failf "shard %d NVM counters diverge from the standalone engine"
        target
  done

(* --- scaling --------------------------------------------------------------- *)

let test_scaling () =
  let cell shards =
    let _s, r = run_sharded ~shards ~clients:8 ~total_ops:8000 ~records:2048 ~seed:90210 () in
    r.Kamino_workload.Driver.throughput_mops
  in
  let one = cell 1 in
  let four = cell 4 in
  if four < 2.0 *. one then
    Alcotest.failf "4-shard aggregate %.4f M ops/s is below 2x the 1-shard %.4f" four
      one

(* --- parallel execution (OCaml 5 domains) ----------------------------------- *)

(* The float fields compare with [=]: bit-identity, not tolerance. Every
   label's histogram is compared by count, sum, p50 and p99. *)
let result_fingerprint (r : Driver.result) =
  ( r.Driver.total_ops,
    r.Driver.elapsed_ns,
    r.Driver.throughput_mops,
    r.Driver.mean_latency_ns,
    List.map
      (fun (l, h) ->
        (l, Metrics.count h, Metrics.sum h, Metrics.percentiles h [| 50.; 99. |]))
      r.Driver.latencies )

let shard_fingerprints s =
  Array.init (Shard.shards s) (fun i -> Engine.fingerprint (Shard.engine s i))

(* The determinism contract: simulated time, NVM counters, heap images and
   the merged driver result are bit-identical whatever the domain count. *)
let test_parallel_oracle () =
  let shards = 4 and clients = 9 and total_ops = 2500 and records = 1024 in
  List.iter
    (fun seed ->
      let s1, r1 =
        run_sharded ~domains:1 ~shards ~clients ~total_ops ~records ~seed ()
      in
      let base_fp = shard_fingerprints s1 in
      let base_r = result_fingerprint r1 in
      List.iter
        (fun domains ->
          let sn, rn =
            run_sharded ~domains ~shards ~clients ~total_ops ~records ~seed ()
          in
          Array.iteri
            (fun i fp ->
              if fp <> base_fp.(i) then
                Alcotest.failf
                  "seed=%d domains=%d: shard %d heap/counter fingerprint diverges"
                  seed domains i)
            (shard_fingerprints sn);
          Alcotest.(check int)
            (Printf.sprintf "seed=%d domains=%d committed" seed domains)
            (Shard.committed s1) (Shard.committed sn);
          if result_fingerprint rn <> base_r then
            Alcotest.failf "seed=%d domains=%d: driver result diverges" seed
              domains)
        [ 2; 3; 4 ])
    [ 7; 90210; 4242 ]

(* Lane decomposition: the parallel executor's per-shard operation streams
   (which client ran each op, in order) equal the projection of the global
   furthest-behind schedule onto each shard. The reference is reimplemented
   here over a second identically-seeded façade. *)
let prop_parallel_stream =
  QCheck.Test.make ~count:15
    ~name:"parallel per-shard streams match the global schedule"
    QCheck.(quad (int_range 1 1000) (int_range 1 4) (int_range 1 9) (int_range 0 400))
    (fun (seed, shards, clients, total_ops) ->
      let records = 512 in
      let domains = 1 + (seed mod 4) in
      (* Reference: one loop over every client at once, always the globally
         furthest-behind next (ties to the lowest client id). *)
      let streams_ref = Array.make shards [] in
      (let s = Shard.create ~config ~kind:Engine.Kamino_simple ~seed ~shards () in
       let kv = Shard_kv.create s ~value_size:1024 ~node_size:1024 in
       load_kv kv records;
       let own = owned_keys s records in
       let rngs = Array.init clients (fun c -> Rng.create (777 + c)) in
       let home = Array.init clients (fun c -> Shard_driver.home ~shards c) in
       let starts = Array.init shards (fun i -> Engine.now (Shard.engine s i)) in
       let clocks = Array.init clients (fun c -> Clock.create_at starts.(home.(c))) in
       let quota =
         Array.init clients (fun c ->
             (total_ops / clients) + if c < total_ops mod clients then 1 else 0)
       in
       for _ = 1 to total_ops do
         let pick = ref (-1) and behind = ref max_int in
         for c = 0 to clients - 1 do
           let p = Clock.now clocks.(c) - starts.(home.(c)) in
           if quota.(c) > 0 && p < !behind then begin
             pick := c;
             behind := p
           end
         done;
         let c = !pick in
         let i = home.(c) in
         quota.(c) <- quota.(c) - 1;
         Shard.set_clock s i clocks.(c);
         ignore (step_op ~own ~rngs (Shard_kv.store kv i) ~client:c ~shard_id:i);
         streams_ref.(i) <- c :: streams_ref.(i)
       done);
      (* Candidate: the domain executor, recording who ran on each shard.
         Each stream cell is written only by its shard's executor domain. *)
      let streams_par = Array.make shards [] in
      (let s = Shard.create ~config ~kind:Engine.Kamino_simple ~seed ~shards () in
       let kv = Shard_kv.create s ~value_size:1024 ~node_size:1024 in
       load_kv kv records;
       let own = owned_keys s records in
       let rngs = Array.init clients (fun c -> Rng.create (777 + c)) in
       ignore
         (Shard_driver.run ~domains ~shard:s ~clients ~total_ops
            ~step:(fun ~client ~shard_id () ->
              streams_par.(shard_id) <- client :: streams_par.(shard_id);
              step_op ~own ~rngs (Shard_kv.store kv shard_id) ~client ~shard_id)
            ()));
      Array.iteri
        (fun i ref_stream ->
          if streams_par.(i) <> ref_stream then
            QCheck.Test.fail_reportf
              "shard %d: parallel stream diverges from the global schedule (%d vs %d ops)"
              i
              (List.length streams_par.(i))
              (List.length ref_stream))
        streams_ref;
      true)

(* Byte-identical Perfetto traces across domain counts: per-shard rings
   (each mutated only by its executor domain), merged afterwards on the
   deterministic (track, ts) order. *)
let test_parallel_trace_identity () =
  let shards = 4 and clients = 8 and total_ops = 1500 and records = 512 in
  let trace domains =
    let rings = Array.init shards (fun _ -> Obs.create ~capacity:8192 ()) in
    let s =
      Shard.create ~config ~shard_obs:rings ~kind:Engine.Kamino_simple ~seed:90210
        ~shards ()
    in
    let kv = Shard_kv.create s ~value_size:1024 ~node_size:1024 in
    load_kv kv records;
    let own = owned_keys s records in
    let rngs = Array.init clients (fun c -> Rng.create (777 + c)) in
    ignore
      (Shard_driver.run ~domains ~shard:s ~clients ~total_ops
         ~step:(fun ~client ~shard_id () ->
           step_op ~own ~rngs (Shard_kv.store kv shard_id) ~client ~shard_id)
         ());
    Sink.perfetto_string (Obs.merged rings)
  in
  let base = trace 1 in
  Alcotest.(check bool) "trace is non-trivial" true (String.length base > 1000);
  List.iter
    (fun domains ->
      if trace domains <> base then
        Alcotest.failf "domains=%d: merged Perfetto trace differs from domains=1"
          domains)
    [ 2; 4 ]

(* Run [f] on a watchdog domain and wait at most [seconds] of wall time
   for its outcome, so a driver that never returns fails the case
   instead of stalling the suite. *)
let within ~seconds f =
  let outcome = Atomic.make None in
  let runner =
    Domain.spawn (fun () ->
        Atomic.set outcome (Some (match f () with v -> Ok v | exception e -> Error e)))
  in
  let deadline = Unix.gettimeofday () +. seconds in
  let rec wait () =
    match Atomic.get outcome with
    | Some r ->
        Domain.join runner;
        r
    | None when Unix.gettimeofday () > deadline ->
        Alcotest.failf "Shard_driver.run did not return within %.0f s" seconds
    | None ->
        Unix.sleepf 0.001;
        wait ()
  in
  wait ()

(* A step that raises must surface from [run] on any domain count, and
   only after every spawned domain has finished its lanes and been
   joined: the non-raising shard's quota is fully executed. *)
let test_step_raises () =
  let shards = 2 and clients = 2 and total_ops = 40 in
  List.iter
    (fun (bad, domains) ->
      let s = Shard.create ~config ~kind:Engine.Kamino_simple ~seed:5 ~shards () in
      let ran = Array.init shards (fun _ -> Atomic.make 0) in
      let run () =
        Shard_driver.run ~domains ~shard:s ~clients ~total_ops
          ~step:(fun ~client:_ ~shard_id () ->
            if shard_id = bad then failwith "boom";
            Atomic.incr ran.(shard_id);
            "noop")
          ()
      in
      let context = Printf.sprintf "shard %d raises, domains=%d" bad domains in
      (match within ~seconds:30. run with
      | Error (Failure msg) when msg = "boom" -> ()
      | Error e -> Alcotest.failf "%s: raised %s" context (Printexc.to_string e)
      | Ok _ -> Alcotest.failf "%s: run returned normally" context);
      let good = 1 - bad in
      (* Sequentially, lanes run in shard order: a raise on shard 0 stops
         the run before shard 1's lane starts. *)
      let expect = if domains = 1 && bad = 0 then 0 else total_ops / clients in
      Alcotest.(check int) (context ^ ": ops on the other shard") expect
        (Atomic.get ran.(good)))
    [ (1, 1); (1, 2); (0, 2) ]

(* Under a multi-domain run each engine belongs to one executor domain,
   so a cross-shard transaction from a step is a typed error that
   touches no shard. The same step on one domain commits atomically. *)
let test_cross_shard_under_domains () =
  let shards = 2 and clients = 2 and total_ops = 20 in
  let s = Shard.create ~config ~kind:Engine.Kamino_simple ~seed:11 ~shards () in
  let kv = Shard_kv.create s ~value_size:64 ~node_size:1024 in
  let span =
    List.init shards (fun i ->
        let k = ref 0 in
        while Shard.route s !k <> i do
          incr k
        done;
        !k)
  in
  let stamps = ref 0 in
  let run domains =
    Shard_driver.run ~domains ~shard:s ~clients ~total_ops
      ~step:(fun ~client:_ ~shard_id () ->
        if shard_id = 0 then begin
          incr stamps;
          Shard_kv.multi_put kv
            (List.map (fun k -> (k, Printf.sprintf "stamp%d" !stamps)) span)
        end;
        "multi")
      ()
  in
  Alcotest.check_raises "refused under domains=2"
    (Invalid_argument "Shard.with_cross_tx: lanes run on several domains") (fun () ->
      ignore (run 2));
  let check_span what expect =
    List.iter
      (fun k -> Alcotest.(check (option string)) what expect (Shard_kv.get kv k))
      span
  in
  check_span "refused batch wrote nothing" None;
  ignore (run 1);
  check_span "domains=1 commits atomically" (Some (Printf.sprintf "stamp%d" !stamps));
  (match Shard_kv.validate kv with Ok () -> () | Error e -> Alcotest.fail e);
  match Shard.verify_backups s with Ok () -> () | Error e -> Alcotest.fail e

(* Client [c] only ever runs on its home shard, and carries
   [total_ops / clients] operations, the first [total_ops mod clients]
   clients one more. *)
let test_home_and_quota () =
  let shards = 3 and clients = 7 and total_ops = 45 in
  List.iter
    (fun domains ->
      let s = Shard.create ~config ~kind:Engine.Kamino_simple ~seed:3 ~shards () in
      (* Slot [c] is written only by the lane of [c]'s home shard. *)
      let ops = Array.make clients 0 in
      let wrong = Atomic.make 0 in
      let r =
        Shard_driver.run ~domains ~shard:s ~clients ~total_ops
          ~step:(fun ~client ~shard_id () ->
            if shard_id <> Shard_driver.home ~shards client then Atomic.incr wrong;
            ops.(client) <- ops.(client) + 1;
            "noop")
          ()
      in
      let context = Printf.sprintf "domains=%d" domains in
      Alcotest.(check int) (context ^ ": steps off their home shard") 0 (Atomic.get wrong);
      Array.iteri
        (fun c n ->
          let quota = (total_ops / clients) + if c < total_ops mod clients then 1 else 0 in
          Alcotest.(check int) (Printf.sprintf "%s: client %d quota" context c) quota n)
        ops;
      Alcotest.(check int) (context ^ ": total ops") total_ops r.Driver.total_ops)
    [ 1; 3 ]

(* Shard [s] runs on domain [s mod domains]: the calling domain owns
   shard 0, every lane stays on one domain, and lanes share a domain
   exactly when their shard ids agree modulo [domains]. *)
let test_lane_placement () =
  let shards = 4 and domains = 2 in
  let s = Shard.create ~config ~kind:Engine.Kamino_simple ~seed:9 ~shards () in
  (* Slot [i] is written only by shard [i]'s lane. *)
  let seen = Array.make shards [] in
  ignore
    (Shard_driver.run ~domains ~shard:s ~clients:8 ~total_ops:64
       ~step:(fun ~client:_ ~shard_id () ->
         let d = (Domain.self () :> int) in
         if not (List.mem d seen.(shard_id)) then seen.(shard_id) <- d :: seen.(shard_id);
         "noop")
       ());
  let dom =
    Array.mapi
      (fun i ds ->
        match ds with
        | [ d ] -> d
        | _ -> Alcotest.failf "shard %d ran on %d domains" i (List.length ds))
      seen
  in
  Alcotest.(check int) "shard 0 on the calling domain" (Domain.self () :> int) dom.(0);
  for i = 0 to shards - 1 do
    for j = 0 to shards - 1 do
      Alcotest.(check bool)
        (Printf.sprintf "shards %d and %d share a domain" i j)
        (i mod domains = j mod domains)
        (dom.(i) = dom.(j))
    done
  done

(* When several lanes raise, [run] re-raises the first exception in
   domain order, the calling domain's first, whatever order the lanes
   failed in. With 4 shards on 2 domains, shard 2 runs on domain 0 and
   shard 1 on domain 1. *)
let test_first_exception_in_domain_order () =
  let shards = 4 in
  let s = Shard.create ~config ~kind:Engine.Kamino_simple ~seed:13 ~shards () in
  let run () =
    Shard_driver.run ~domains:2 ~shard:s ~clients:4 ~total_ops:40
      ~step:(fun ~client:_ ~shard_id () ->
        if shard_id = 1 || shard_id = 2 then failwith (Printf.sprintf "shard %d" shard_id);
        "noop")
      ()
  in
  match within ~seconds:30. run with
  | Error (Failure msg) -> Alcotest.(check string) "domain 0's exception wins" "shard 2" msg
  | Error e -> Alcotest.failf "raised %s" (Printexc.to_string e)
  | Ok _ -> Alcotest.fail "run returned normally"

(* --- cross-shard transactions ---------------------------------------------- *)

let make_cross ?(config = config) ~shards ~seed () =
  let s = Shard.create ~config ~kind:Engine.Kamino_simple ~seed ~shards () in
  (* One 64-byte cell per shard, stamped through cross-shard commits. *)
  let cells =
    Array.init shards (fun i ->
        Shard.with_tx s i (fun tx ->
            let p = Engine.alloc tx 64 in
            Engine.write_int64 tx p 0 0L;
            p))
  in
  (s, cells)

let stamp_all s cells ids stamp =
  Shard.with_cross_tx s ids (fun tx_of ->
      List.iter
        (fun i ->
          let tx = tx_of i in
          Engine.add tx cells.(i);
          Engine.write_int64 tx cells.(i) 0 stamp)
        ids)

let check_cells s cells ids ~expect context =
  List.iter
    (fun i ->
      let v = Engine.peek_int64 (Shard.engine s i) cells.(i) 0 in
      if v <> expect then
        Alcotest.failf "%s: shard %d cell is %Ld, expected %Ld" context i v expect)
    ids

(* The several-domains guard lasts only as long as the run: after a
   multi-domain run, whether it returned or raised, a cross-shard
   transaction commits again. *)
let test_parallel_flag_cleared () =
  let s, cells = make_cross ~shards:2 ~seed:17 () in
  let ids = [ 0; 1 ] in
  let run ~raise_on =
    Shard_driver.run ~domains:2 ~shard:s ~clients:2 ~total_ops:10
      ~step:(fun ~client:_ ~shard_id () ->
        if Some shard_id = raise_on then failwith "boom";
        "noop")
      ()
  in
  ignore (run ~raise_on:None);
  stamp_all s cells ids 1L;
  check_cells s cells ids ~expect:1L "after a run that returned";
  (match within ~seconds:30. (fun () -> run ~raise_on:(Some 1)) with
  | Error (Failure _) -> ()
  | Error e -> Alcotest.failf "raised %s" (Printexc.to_string e)
  | Ok _ -> Alcotest.fail "run returned normally");
  stamp_all s cells ids 2L;
  check_cells s cells ids ~expect:2L "after a run that raised"

let test_cross_commit () =
  let s, cells = make_cross ~shards:4 ~seed:11 () in
  let ids = [ 0; 1; 2; 3 ] in
  stamp_all s cells ids 42L;
  check_cells s cells ids ~expect:42L "cross-shard commit";
  Alcotest.(check bool) "marker cleared after commit" true
    (Commit_marker.read (Shard.marker s) = None);
  (* Partial participant lists work too, and leave bystanders alone. *)
  stamp_all s cells [ 1; 3 ] 43L;
  check_cells s cells [ 1; 3 ] ~expect:43L "partial cross-shard commit";
  check_cells s cells [ 0; 2 ] ~expect:42L "bystander shards untouched";
  match Shard.verify_backups s with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

exception Boom

let test_cross_abort () =
  let s, cells = make_cross ~shards:3 ~seed:12 () in
  let ids = [ 0; 1; 2 ] in
  stamp_all s cells ids 7L;
  (match
     Shard.with_cross_tx s ids (fun tx_of ->
         List.iter
           (fun i ->
             let tx = tx_of i in
             Engine.add tx cells.(i);
             Engine.write_int64 tx cells.(i) 0 666L)
           ids;
         raise Boom)
   with
  | () -> Alcotest.fail "exception swallowed"
  | exception Boom -> ());
  check_cells s cells ids ~expect:7L "abort rolled every shard back";
  (* The engines are usable afterwards. *)
  stamp_all s cells ids 8L;
  check_cells s cells ids ~expect:8L "commit after abort"

(* Cross-shard sweeps rebuild their shard set at every crash point: small
   regions keep that cheap. *)
let sweep_config = { config with Engine.heap_bytes = 1 lsl 18 }

let check_marker_retired s ctx =
  Alcotest.(check bool) (ctx ^ ": marker retired") true
    (Commit_marker.read (Shard.marker s) = None)

let check_backups s ctx =
  match Shard.verify_backups s with Ok () -> () | Error e -> Alcotest.failf "%s: %s" ctx e

(* Crash at every fence of a cross-shard stamp — the prepares, both marker
   persists, the commits, the clear and the appliers' drain — and at
   every fence of the recoveries that follow: before the marker's valid
   flag is durable the transaction must vanish everywhere, from then on
   it must land everywhere. The recovered façade then commits again. *)
let test_cross_crash_at_each_step () =
  let ids = [ 0; 1; 2 ] in
  let setup () =
    let s, cells = make_cross ~config:sweep_config ~shards:3 ~seed:100 () in
    stamp_all s cells ids 1L;
    (s, cells)
  in
  let st =
    Fence_sweep.sweep ~ctx:"cross-shard stamp" ~setup
      ~crash:(fun (s, _) -> Shard.crash s)
      ~recover:(fun (s, _) -> Shard.recover s)
      ~op:(fun (s, cells) -> stamp_all s cells ids 2L)
      ~drain:(fun (s, _) -> Shard.drain_backups s)
      ~observe:(fun (s, cells) ->
        String.concat ","
          (List.map
             (fun i -> Int64.to_string (Engine.peek_int64 (Shard.engine s i) cells.(i) 0))
             ids))
      ~check:(fun (s, _) ctx ->
        check_marker_retired s ctx;
        check_backups s ctx)
      ~on_crash:(fun (s, cells) n ->
        stamp_all s cells ids 3L;
        check_cells s cells ids ~expect:3L
          (Printf.sprintf "crash at fence %d: post-recovery commit" n);
        check_backups s (Printf.sprintf "crash at fence %d: post-recovery" n))
      ()
  in
  (* Three prepares, the marker, three commits and the clear. *)
  Alcotest.(check bool) "at least one crash point per protocol step" true
    (st.Fence_sweep.points >= 8);
  Alcotest.(check bool) "crash points on both sides of the commit point" true
    (st.Fence_sweep.after >= 1 && st.Fence_sweep.after < st.Fence_sweep.points);
  Alcotest.(check bool) "crash points in the drain after the commit returned" true
    (st.Fence_sweep.committed >= 1)

(* A corrupt marker image is a typed error out of recovery. Reading it as
   "no marker" could roll a decided transaction back on some shards; an
   unchecked count reads past the entries. *)
let test_corrupt_marker_recover () =
  List.iter
    (fun (what, pokes) ->
      let s, cells = make_cross ~shards:3 ~seed:13 () in
      stamp_all s cells [ 0; 1; 2 ] 5L;
      let r = Commit_marker.region (Shard.marker s) in
      List.iter (fun (off, v) -> Region.write_int r off v) pokes;
      Region.persist_all r;
      Shard.crash s;
      match Shard.recover s with
      | () -> Alcotest.failf "%s: recovered from a corrupt marker" what
      | exception Region.Corrupt { structure = "Commit_marker"; _ } -> ())
    [
      ("flag 2", [ (0, 2) ]);
      ("count -1", [ (0, 1); (8, -1) ]);
      ("count max_int", [ (0, 1); (8, max_int) ]);
    ]

(* --- sharded kv ------------------------------------------------------------ *)

let test_multi_put () =
  let s = Shard.create ~config ~kind:Engine.Kamino_simple ~seed:21 ~shards:4 () in
  let kv = Shard_kv.create s ~value_size:256 ~node_size:1024 in
  let bindings = List.init 16 (fun k -> (k, Printf.sprintf "v%d" k)) in
  Shard_kv.multi_put kv bindings;
  List.iter
    (fun (k, v) ->
      match Shard_kv.get kv k with
      | Some got when got = v -> ()
      | Some got -> Alcotest.failf "key %d: %S, expected %S" k got v
      | None -> Alcotest.failf "key %d missing after multi_put" k)
    bindings;
  Alcotest.(check int) "size sums shards" 16 (Shard_kv.size kv);
  (* Crash at every fence of a cross-shard batch: the whole batch lands
     or none of it does. *)
  let update = List.init 16 (fun k -> (k, Printf.sprintf "w%d" k)) in
  let setup () =
    let s = Shard.create ~config:sweep_config ~kind:Engine.Kamino_simple ~seed:21 ~shards:4 () in
    let kv = Shard_kv.create s ~value_size:256 ~node_size:1024 in
    Shard_kv.multi_put kv bindings;
    (s, ref kv)
  in
  let st =
    Fence_sweep.sweep ~ctx:"multi_put" ~setup
      ~crash:(fun (s, _) -> Shard.crash s)
      ~recover:(fun (s, kv) ->
        Shard.recover s;
        kv := Shard_kv.reattach s)
      ~op:(fun (_, kv) -> Shard_kv.multi_put !kv update)
      ~drain:(fun (s, _) -> Shard.drain_backups s)
      ~observe:(fun (_, kv) ->
        String.concat ","
          (List.map
             (fun (k, _) -> Option.value ~default:"<none>" (Shard_kv.get !kv k))
             bindings))
      ~check:(fun (s, kv) ctx ->
        check_marker_retired s ctx;
        check_backups s ctx;
        match Shard_kv.validate !kv with Ok () -> () | Error e -> Alcotest.failf "%s: %s" ctx e)
      ()
  in
  Alcotest.(check bool) "crash points on both sides of the commit point" true
    (st.Fence_sweep.after >= 1 && st.Fence_sweep.after < st.Fence_sweep.points)

(* --- snapshot reads -------------------------------------------------------- *)

(* Routed sharded snapshot reads are bit-identical to standalone per-shard
   engines at equal watermarks: shard [i] of a façade seeded [s] serves
   exactly what [Engine.create ~seed:(s + i)] serves after the same
   routed sub-workload — same watermark pair, same values. *)
let prop_snapshot_mirror =
  QCheck.Test.make ~count:20 ~name:"sharded snapshot reads mirror standalone shards"
    QCheck.(
      pair (int_range 1 1000)
        (list_of_size Gen.(int_range 1 40)
           (pair (int_range 0 63) (int_range 1 64))))
    (fun (seed, ops) ->
      let shards = 4 in
      let value_of k len = String.make len (Char.chr (Char.code 'a' + (k mod 26))) in
      let s = Shard.create ~config ~kind:Engine.Kamino_simple ~seed ~shards () in
      let kv = Shard_kv.create s ~value_size:256 ~node_size:1024 in
      List.iter (fun (k, len) -> Shard_kv.put kv k (value_of k len)) ops;
      Shard.drain_backups s;
      let solo =
        Array.init shards (fun i ->
            let e = Engine.create ~config ~kind:Engine.Kamino_simple ~seed:(seed + i) () in
            let kvi = Kv.create e ~value_size:256 ~node_size:1024 in
            List.iter
              (fun (k, len) ->
                if Shard.route_key ~shards k = i then Kv.put kvi k (value_of k len))
              ops;
            Engine.drain_backup e;
            (e, kvi))
      in
      let wms = Shard.watermarks s in
      Array.iteri
        (fun i (e, _) ->
          if wms.(i) <> Engine.snapshot_watermark e then
            QCheck.Test.fail_reportf "shard %d watermark diverges from standalone" i)
        solo;
      let keys = List.sort_uniq compare (List.map fst ops) in
      List.iter
        (fun k ->
          let i = Shard.route s k in
          let _, kvi = solo.(i) in
          let routed = Shard_kv.snapshot_get kv k in
          let standalone = Kv.snapshot_get kvi k in
          if routed <> standalone then
            QCheck.Test.fail_reportf
              "key %d (shard %d): routed snapshot %s, standalone %s" k i
              (Option.value ~default:"<none>" routed)
              (Option.value ~default:"<none>" standalone))
        keys;
      true)

(* A snapshot multi-get is never blocked by a concurrent cross-shard
   [multi_put]'s lock set: probed at every fence of the batch — through
   the prepares, with every write lock held on every shard, and past the
   commit point — it must return the pre-transaction values, as genuine
   backup hits (the locked fallback would trip over the open
   transactions). *)
let test_snapshot_during_multi_put () =
  let s = Shard.create ~config ~kind:Engine.Kamino_simple ~seed:31 ~shards:4 () in
  let kv = Shard_kv.create s ~value_size:256 ~node_size:1024 in
  let keys = List.init 16 Fun.id in
  List.iter (fun k -> Shard_kv.put kv k (Printf.sprintf "old%d" k)) keys;
  Shard.drain_backups s;
  let fallbacks () =
    let n = ref 0 in
    for i = 0 to Shard.shards s - 1 do
      n := !n + (Engine.metrics (Shard.engine s i)).Engine.snapshot_fallbacks
    done;
    !n
  in
  let fb0 = fallbacks () in
  let observed = ref [] in
  (* Each probe re-arms the next fence, so one run probes them all. *)
  let rec probe () =
    let reader = Clock.create_at 0 in
    observed := Shard_kv.snapshot_multi_get ~clock:reader kv keys :: !observed;
    Region.at_fence 0 probe
  in
  Region.at_fence 0 probe;
  Shard_kv.multi_put kv (List.map (fun k -> (k, Printf.sprintf "new%d" k)) keys);
  Region.disarm_fence ();
  let probes = List.length !observed in
  Alcotest.(check bool) (Printf.sprintf "probed at %d fences" probes) true (probes >= 8);
  List.iter
    (fun got ->
      Alcotest.(check (list int)) "every key probed" keys (List.map fst got);
      List.iter
        (fun (k, v) ->
          let expect = Printf.sprintf "old%d" k in
          match v with
          | Some got when got = expect -> ()
          | Some got ->
              Alcotest.failf "key %d under multi_put locks: %S, expected %S" k got expect
          | None -> Alcotest.failf "key %d missing under multi_put locks" k)
        got)
    !observed;
  Alcotest.(check int) "all probes were backup hits, zero fallbacks" fb0 (fallbacks ());
  (* Once the batch commits and propagates, snapshots serve the new values. *)
  Shard.drain_backups s;
  List.iter
    (fun k ->
      match Shard_kv.snapshot_get kv k with
      | Some got when got = Printf.sprintf "new%d" k -> ()
      | v ->
          Alcotest.failf "key %d after drain: %s" k
            (Option.value ~default:"<none>" v))
    keys

let () =
  Alcotest.run "shard"
    [
      ( "router",
        [ Alcotest.test_case "deterministic, in range, spreads" `Quick test_router ] );
      ( "isolation",
        [
          Alcotest.test_case "per-shard sim-ns equals a standalone engine" `Quick
            test_isolation;
        ] );
      ( "scaling",
        [ Alcotest.test_case "4 shards >= 2x aggregate ops/s" `Quick test_scaling ] );
      ( "parallel",
        [
          Alcotest.test_case "bit-identical across domain counts" `Quick
            test_parallel_oracle;
          QCheck_alcotest.to_alcotest prop_parallel_stream;
          Alcotest.test_case "merged Perfetto trace byte-identical" `Quick
            test_parallel_trace_identity;
          Alcotest.test_case "a raising step re-raises after every join" `Quick
            test_step_raises;
          Alcotest.test_case "cross-shard tx refused on several domains" `Quick
            test_cross_shard_under_domains;
          Alcotest.test_case "clients stay home with fixed quotas" `Quick
            test_home_and_quota;
          Alcotest.test_case "shard s runs on domain s mod domains" `Quick
            test_lane_placement;
          Alcotest.test_case "first exception in domain order wins" `Quick
            test_first_exception_in_domain_order;
        ] );
      ( "cross-shard",
        [
          Alcotest.test_case "commit is atomic across shards" `Quick test_cross_commit;
          Alcotest.test_case "user exception aborts every participant" `Quick
            test_cross_abort;
          Alcotest.test_case "crash at every protocol step is all-or-nothing" `Quick
            test_cross_crash_at_each_step;
          Alcotest.test_case "corrupt marker is a typed recovery error" `Quick
            test_corrupt_marker_recover;
          Alcotest.test_case "guard lifts when a parallel run ends" `Quick
            test_parallel_flag_cleared;
        ] );
      ( "kv",
        [ Alcotest.test_case "multi_put atomic, crash-safe" `Quick test_multi_put ] );
      ( "snapshot",
        [
          QCheck_alcotest.to_alcotest prop_snapshot_mirror;
          Alcotest.test_case "multi-get never blocks on multi_put locks" `Quick
            test_snapshot_during_multi_put;
        ] );
    ]
