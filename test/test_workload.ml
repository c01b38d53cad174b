(* Tests for the workload library: zipfian distribution shape, YCSB op
   mixes, the virtual-time driver, and TPC-C-lite consistency. *)

module Rng = Kamino_sim.Rng
module Clock = Kamino_sim.Clock
module Metrics = Kamino_obs.Metrics
module Engine = Kamino_core.Engine
module Kv = Kamino_kv.Kv
module Zipf = Kamino_workload.Zipf
module Ycsb = Kamino_workload.Ycsb
module Driver = Kamino_workload.Driver
module Tpcc = Kamino_workload.Tpcc

let test_zipf_bounds () =
  let z = Zipf.create ~n:1000 ~theta:0.99 in
  let rng = Rng.create 1 in
  for _ = 1 to 5000 do
    let r = Zipf.sample z rng in
    Alcotest.(check bool) "rank in range" true (r >= 0 && r < 1000);
    let k = Zipf.sample_scrambled z rng in
    Alcotest.(check bool) "scrambled in range" true (k >= 0 && k < 1000)
  done

let test_zipf_skew () =
  let z = Zipf.create ~n:10000 ~theta:0.99 in
  let rng = Rng.create 2 in
  let top10 = ref 0 and n = 50000 in
  for _ = 1 to n do
    if Zipf.sample z rng < 10 then incr top10
  done;
  let frac = float_of_int !top10 /. float_of_int n in
  (* With theta=0.99 and n=10k, the top-10 ranks draw roughly 30-45%. *)
  Alcotest.(check bool)
    (Printf.sprintf "top-10 ranks dominate (%.2f)" frac)
    true (frac > 0.25 && frac < 0.55)

let test_zipf_scramble_spreads () =
  let z = Zipf.create ~n:10000 ~theta:0.99 in
  let rng = Rng.create 3 in
  (* After scrambling, the hottest keys should not be the lowest ranks. *)
  let seen = Hashtbl.create 64 in
  for _ = 1 to 20000 do
    let k = Zipf.sample_scrambled z rng in
    Hashtbl.replace seen k (1 + Option.value ~default:0 (Hashtbl.find_opt seen k))
  done;
  let hottest = Hashtbl.fold (fun k c (bk, bc) -> if c > bc then (k, c) else (bk, bc)) seen (0, 0) in
  Alcotest.(check bool) "hottest key is scattered" true (fst hottest > 100)

(* Chi-square goodness-of-fit of [Zipf.sample] against the exact rank
   probabilities p_i = i^-theta / zeta_n(theta). The sampler is the
   Gray/YCSB inverse-CDF approximation, so the statistic carries a small
   deterministic bias on top of sampling noise — at n=200, theta=0.99 and
   100k draws it sits near 275 (pure noise over 24 bins would be ~25-50).
   The thresholds are set at roughly twice that: far below any structurally
   wrong sampler (a uniform impostor scores ~190,000; mis-parameterized
   theta scores in the thousands) while leaving headroom over the
   approximation's own bias. Low ranks are tested individually where the
   mass is; the tail is pooled into doubling bins so every expected count
   stays well above the chi-square validity floor of ~5. *)
let chi_square ~n ~theta ~samples ~seed =
  let z = Zipf.create ~n ~theta in
  let zetan = ref 0.0 in
  for i = 1 to n do
    zetan := !zetan +. (1.0 /. Float.pow (float_of_int i) theta)
  done;
  let p r = 1.0 /. (Float.pow (float_of_int (r + 1)) theta *. !zetan) in
  let counts = Array.make n 0 in
  let rng = Rng.create seed in
  for _ = 1 to samples do
    let r = Zipf.sample z rng in
    counts.(r) <- counts.(r) + 1
  done;
  let chi2 = ref 0.0 in
  let add_bin lo hi =
    let obs = ref 0 and expect = ref 0.0 in
    for r = lo to hi do
      obs := !obs + counts.(r);
      expect := !expect +. p r
    done;
    let e = !expect *. float_of_int samples in
    let d = float_of_int !obs -. e in
    chi2 := !chi2 +. (d *. d /. e)
  in
  for r = 0 to min 19 (n - 1) do
    add_bin r r
  done;
  let lo = ref 20 and w = ref 20 in
  while !lo < n do
    let hi = min (n - 1) (!lo + !w - 1) in
    add_bin !lo hi;
    lo := hi + 1;
    w := !w * 2
  done;
  !chi2

let test_zipf_chi_square () =
  let check ~n ~theta ~limit =
    let chi2 = chi_square ~n ~theta ~samples:100_000 ~seed:4242 in
    Alcotest.(check bool)
      (Printf.sprintf "chi2 for n=%d theta=%.2f within bound (%.1f < %.1f)" n theta chi2
         limit)
      true (chi2 < limit)
  in
  check ~n:200 ~theta:0.99 ~limit:600.0;
  check ~n:1000 ~theta:0.99 ~limit:600.0;
  check ~n:200 ~theta:0.5 ~limit:300.0

(* The whole point of seeding: a fixed seed must reproduce the exact key
   sequence, and the scramble must stay a pure function of the rank. *)
let test_zipf_scrambled_deterministic () =
  let sequence seed =
    let z = Zipf.create ~n:4096 ~theta:0.99 in
    let rng = Rng.create seed in
    List.init 1000 (fun _ -> Zipf.sample_scrambled z rng)
  in
  Alcotest.(check (list int)) "same seed, same key stream" (sequence 99) (sequence 99);
  Alcotest.(check bool) "different seed, different key stream" true
    (sequence 99 <> sequence 100);
  (* sample_scrambled = scramble-of-sample: replaying the rank stream
     through a parallel RNG must reproduce the key stream via the same
     pure hash, pinning the composition (not just the end-to-end values). *)
  let z = Zipf.create ~n:4096 ~theta:0.99 in
  let r1 = Rng.create 7 and r2 = Rng.create 7 in
  for _ = 1 to 1000 do
    let rank = Zipf.sample z r1 in
    let key = Zipf.sample_scrambled z r2 in
    Alcotest.(check int) "key stream = scramble of rank stream"
      (Zipf.scramble 4096 rank) key;
    Alcotest.(check bool) "key in range" true (key >= 0 && key < 4096)
  done

let test_zipf_invalid () =
  Alcotest.(check bool) "bad n" true
    (try ignore (Zipf.create ~n:0 ~theta:0.9); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad theta" true
    (try ignore (Zipf.create ~n:10 ~theta:1.5); false with Invalid_argument _ -> true)

let mix_of workload n =
  let t = Ycsb.create workload ~record_count:1000 ~theta:0.99 in
  let rng = Rng.create 7 in
  let counts = Hashtbl.create 4 in
  for _ = 1 to n do
    let op = Ycsb.next t rng in
    let name = Ycsb.op_name op in
    Hashtbl.replace counts name (1 + Option.value ~default:0 (Hashtbl.find_opt counts name))
  done;
  fun name -> float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts name)) /. float_of_int n

let test_ycsb_mixes () =
  let near x target = Float.abs (x -. target) < 0.03 in
  let a = mix_of Ycsb.A 20000 in
  Alcotest.(check bool) "A reads ~50%" true (near (a "read") 0.5);
  Alcotest.(check bool) "A updates ~50%" true (near (a "update") 0.5);
  let b = mix_of Ycsb.B 20000 in
  Alcotest.(check bool) "B reads ~95%" true (near (b "read") 0.95);
  let c = mix_of Ycsb.C 20000 in
  Alcotest.(check bool) "C all reads" true (c "read" = 1.0);
  let d = mix_of Ycsb.D 20000 in
  Alcotest.(check bool) "D inserts ~5%" true (near (d "insert") 0.05);
  let f = mix_of Ycsb.F 20000 in
  Alcotest.(check bool) "F rmw ~50%" true (near (f "rmw") 0.5)

let test_ycsb_e_scans () =
  let t = Ycsb.create Ycsb.E ~record_count:500 ~theta:0.9 in
  let rng = Rng.create 21 in
  let scans = ref 0 and inserts = ref 0 in
  for _ = 1 to 2000 do
    match Ycsb.next t rng with
    | Ycsb.Scan (k, n) ->
        incr scans;
        Alcotest.(check bool) "scan start in space" true (k >= 0 && k < Ycsb.key_space t);
        Alcotest.(check bool) "scan length sane" true (n >= 1 && n <= 100)
    | Ycsb.Insert _ -> incr inserts
    | _ -> Alcotest.fail "E only scans and inserts"
  done;
  let frac = float_of_int !scans /. 2000.0 in
  Alcotest.(check bool) "~95% scans" true (frac > 0.92 && frac < 0.98)

let test_ycsb_insert_grows_keyspace () =
  let t = Ycsb.create Ycsb.D ~record_count:100 ~theta:0.9 in
  let rng = Rng.create 11 in
  let before = Ycsb.key_space t in
  let inserts = ref 0 in
  for _ = 1 to 1000 do
    match Ycsb.next t rng with
    | Ycsb.Insert k ->
        Alcotest.(check int) "insert key is fresh" (before + !inserts) k;
        incr inserts
    | Ycsb.Read k -> Alcotest.(check bool) "read within space" true (k < Ycsb.key_space t)
    | _ -> ()
  done;
  Alcotest.(check int) "key space grew" (before + !inserts) (Ycsb.key_space t)

let test_driver_virtual_time () =
  let config = { Engine.default_config with Engine.heap_bytes = 2 lsl 20 } in
  let e = Engine.create ~config ~kind:Engine.Kamino_simple ~seed:3 () in
  let kv = Kv.create e ~value_size:64 ~node_size:512 in
  for k = 0 to 99 do
    Kv.put kv k "seed"
  done;
  let rng = Rng.create 5 in
  let result =
    Driver.run ~engine:e ~clients:4 ~total_ops:400 ~step:(fun ~client:_ () ->
        let k = Rng.int rng 100 in
        if Rng.bool rng then begin
          Kv.put kv k "updated";
          "update"
        end
        else begin
          ignore (Kv.get kv k);
          "read"
        end)
  in
  Alcotest.(check int) "all ops ran" 400 result.Driver.total_ops;
  Alcotest.(check bool) "time advanced" true (result.Driver.elapsed_ns > 0);
  Alcotest.(check bool) "throughput positive" true (result.Driver.throughput_mops > 0.0);
  let reads = Option.get (Driver.latency_of result "read") in
  let updates = Option.get (Driver.latency_of result "update") in
  Alcotest.(check int) "labels partition ops" 400 (Metrics.count reads + Metrics.count updates);
  (* 4 clients overlapping in virtual time must finish faster than the sum
     of their busy times (otherwise there is no concurrency at all). *)
  let total_busy = Metrics.sum reads + Metrics.sum updates in
  Alcotest.(check bool) "clients overlap" true (result.Driver.elapsed_ns < total_busy)

let test_driver_more_clients_more_throughput () =
  let run clients =
    let config = { Engine.default_config with Engine.heap_bytes = 2 lsl 20 } in
    let e = Engine.create ~config ~kind:Engine.Kamino_simple ~seed:3 () in
    let kv = Kv.create e ~value_size:64 ~node_size:512 in
    for k = 0 to 999 do
      Kv.put kv k "seed"
    done;
    let rng = Rng.create 5 in
    (Driver.run ~engine:e ~clients ~total_ops:1000 ~step:(fun ~client:_ () ->
         ignore (Kv.get kv (Rng.int rng 1000));
         "read")).Driver.throughput_mops
  in
  let t1 = run 1 and t4 = run 4 in
  Alcotest.(check bool)
    (Printf.sprintf "4 clients (%.2f) beat 1 (%.2f)" t4 t1)
    true (t4 > t1 *. 2.0)

let test_tpcc_runs_and_stays_consistent () =
  List.iter
    (fun kind ->
      let name = Engine.kind_name kind in
      let config = { Engine.default_config with Engine.heap_bytes = 8 lsl 20 } in
      let e = Engine.create ~config ~kind ~seed:17 () in
      let rng = Rng.create 23 in
      let t =
        Tpcc.setup e ~warehouses:2 ~districts_per_w:4 ~customers_per_district:20 ~items:100
          ~rng
      in
      let counts = Hashtbl.create 8 in
      for _ = 1 to 500 do
        let kind = Tpcc.run_mix t rng in
        let key = Tpcc.kind_name kind in
        Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
      done;
      (match Tpcc.consistency_check t with
      | Ok () -> ()
      | Error err -> Alcotest.failf "%s: inconsistent after mix: %s" name err);
      Alcotest.(check bool) (name ^ ": new-orders ran") true
        (Hashtbl.mem counts "new-order");
      Alcotest.(check bool) (name ^ ": payments ran") true (Hashtbl.mem counts "payment"))
    [ Engine.Undo_logging; Engine.Kamino_simple ]

let test_tpcc_consistent_across_crash () =
  let config = { Engine.default_config with Engine.heap_bytes = 8 lsl 20 } in
  let e = Engine.create ~config ~kind:Engine.Kamino_simple ~seed:19 () in
  let rng = Rng.create 29 in
  let t =
    Tpcc.setup e ~warehouses:1 ~districts_per_w:4 ~customers_per_district:10 ~items:50 ~rng
  in
  for i = 1 to 200 do
    ignore (Tpcc.run_mix t rng);
    if i mod 50 = 0 then begin
      Engine.crash e;
      Engine.recover e;
      match Tpcc.consistency_check t with
      | Ok () -> ()
      | Error err -> Alcotest.failf "inconsistent after crash %d: %s" i err
    end
  done

let () =
  Alcotest.run "workload"
    [
      ( "zipf",
        [
          Alcotest.test_case "bounds" `Quick test_zipf_bounds;
          Alcotest.test_case "skew" `Quick test_zipf_skew;
          Alcotest.test_case "scramble spreads" `Quick test_zipf_scramble_spreads;
          Alcotest.test_case "chi-square vs exact rank probabilities" `Quick
            test_zipf_chi_square;
          Alcotest.test_case "scrambled sampling is deterministic" `Quick
            test_zipf_scrambled_deterministic;
          Alcotest.test_case "invalid args" `Quick test_zipf_invalid;
        ] );
      ( "ycsb",
        [
          Alcotest.test_case "op mixes" `Quick test_ycsb_mixes;
          Alcotest.test_case "inserts grow key space" `Quick test_ycsb_insert_grows_keyspace;
          Alcotest.test_case "workload E scans" `Quick test_ycsb_e_scans;
        ] );
      ( "driver",
        [
          Alcotest.test_case "virtual time accounting" `Quick test_driver_virtual_time;
          Alcotest.test_case "scaling with clients" `Quick
            test_driver_more_clients_more_throughput;
        ] );
      ( "tpcc",
        [
          Alcotest.test_case "runs and stays consistent" `Quick
            test_tpcc_runs_and_stays_consistent;
          Alcotest.test_case "consistent across crashes" `Quick
            test_tpcc_consistent_across_crash;
        ] );
    ]
