(* Shared benchmark infrastructure: parameters, engine/store construction,
   preloading, YCSB and TPC-C runners, and table formatting. *)

(* Monotonic-guarded wall clock, the one timing source for every bench
   entry point. [Unix.gettimeofday] can step backwards under NTP slews;
   a bench that reads it raw can report negative elapsed time or a
   bogus speedup. [now_s] clamps to non-decreasing, so intervals from
   [elapsed_s] are always >= 0 and every entry point agrees on what
   "wall seconds" means. *)
module Wall = struct
  let last = ref neg_infinity

  let now_s () =
    let t = Unix.gettimeofday () in
    if t > !last then last := t;
    !last

  let elapsed_s ~since = max 0.0 (now_s () -. since)

  (* A wall-clock ratio of two runs, with the host's noise spread over
     both: one warm-up run of each, then [k] interleaved pairs (a, b, a,
     b, ...). [seconds] reads a run's own timed span, so setup outside it
     does not dilute the ratio. [check i ra rb] sees every pair as it is
     run, the warm-up as [i = 0], so a property of the runs (two paths
     that must agree) is checked on each of them. [pairs] holds every
     timed pair's seconds in run order; the summary is over the pairs'
     ratios [seconds a / seconds b]. *)
  type trials = { pairs : (float * float) list; median : float; min : float; max : float }

  let median l =
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

  let paired ~k ~seconds ~check a b =
    if k < 1 then invalid_arg "Wall.paired: k < 1";
    let run i =
      let ra = a () in
      let rb = b () in
      check i ra rb;
      (ra, rb)
    in
    ignore (run 0);
    let rec go i acc =
      let ra, rb = run i in
      let acc = (seconds ra, seconds rb) :: acc in
      if i = k then (ra, rb, List.rev acc) else go (i + 1) acc
    in
    let ra, rb, pairs = go 1 [] in
    let ratios = List.map (fun (x, y) -> if y > 0.0 then x /. y else 0.0) pairs in
    ( ra,
      rb,
      {
        pairs;
        median = median ratios;
        min = List.fold_left Float.min infinity ratios;
        max = List.fold_left Float.max neg_infinity ratios;
      } )
end

module Rng = Kamino_sim.Rng
module Clock = Kamino_sim.Clock
module Cost_model = Kamino_nvm.Cost_model
module Engine = Kamino_core.Engine
module Backup = Kamino_core.Backup
module Kv = Kamino_kv.Kv
module Ycsb = Kamino_workload.Ycsb
module Zipf = Kamino_workload.Zipf
module Driver = Kamino_workload.Driver
module Tpcc = Kamino_workload.Tpcc
module Sim = Kamino_sim.Engine
module Locks = Kamino_core.Locks
module Async = Kamino_chain.Async_chain
module Op = Kamino_chain.Op
module Metrics = Kamino_obs.Metrics

type params = {
  record_count : int;  (** preloaded keys (paper: 10 M) *)
  value_size : int;  (** bytes per value (paper: 1 KB) *)
  ops : int;  (** operations per data point *)
  node_size : int;  (** B+Tree node object size *)
  theta : float;  (** zipfian skew *)
  heap_bytes : int;
  chain_records : int;  (** smaller key space for replicated runs *)
  chain_ops : int;
  tpcc_txs : int;
}

let scaled =
  {
    record_count = 10_000;
    value_size = 1024;
    ops = 8_000;
    node_size = 4096;
    theta = 0.99;
    heap_bytes = 48 * 1024 * 1024;
    chain_records = 10_000;
    chain_ops = 4_000;
    tpcc_txs = 4_000;
  }

let full =
  {
    record_count = 100_000;
    value_size = 1024;
    ops = 50_000;
    node_size = 4096;
    theta = 0.99;
    heap_bytes = 400 * 1024 * 1024;
    chain_records = 20_000;
    chain_ops = 20_000;
    tpcc_txs = 20_000;
  }

let engine_config p =
  {
    Engine.default_config with
    Engine.heap_bytes = p.heap_bytes;
    log_slots = 512;
    max_tx_entries = 192;
    data_log_bytes = 16 * 1024 * 1024;
  }

let kamino_dynamic alpha = Engine.Kamino_dynamic { alpha; policy = Backup.Lru_policy }

(* Build a store and preload [record_count] keys. Bulk-loaded: sorted
   keys go in as whole index leaves ([Kv.load]), so preload is O(n) and a
   million-record table populates in seconds instead of minutes. *)
let make_store ?(config_tweak = Fun.id) p kind =
  let e = Engine.create ~config:(config_tweak (engine_config p)) ~kind ~seed:4242 () in
  let kv = Kv.create e ~value_size:p.value_size ~node_size:p.node_size in
  let payload = String.make (p.value_size - 16) 'k' in
  Kv.load kv ~count:p.record_count ~key:Fun.id ~value:(fun _ -> payload);
  Engine.drain_backup e;
  kv

let value_for p k = Printf.sprintf "%0*d" (p.value_size - 16) (k land 0xffffff)

(* One YCSB run: returns the driver result. *)
let run_ycsb p kv workload ~clients =
  let wl = Ycsb.create workload ~record_count:p.record_count ~theta:p.theta in
  let rng = Rng.create 515 in
  let step ~client:_ () =
    match Ycsb.next wl rng with
    | Ycsb.Read k ->
        ignore (Kv.get kv k);
        "read"
    | Ycsb.Update k ->
        Kv.put kv k (value_for p k);
        "update"
    | Ycsb.Insert k ->
        Kv.put kv k (value_for p k);
        "insert"
    | Ycsb.Scan (k, n) ->
        ignore (Kv.scan kv ~lo:k ~count:n (fun _ _ -> ()));
        "scan"
    | Ycsb.Rmw k ->
        ignore (Kv.read_modify_write kv k (fun s -> s));
        "rmw"
  in
  Driver.run ~engine:(Kv.engine kv) ~clients ~total_ops:p.ops ~step

(* One TPC-C run over a fresh engine of the given kind. *)
let run_tpcc ?(config_tweak = Fun.id) p kind ~clients =
  let e = Engine.create ~config:(config_tweak (engine_config p)) ~kind ~seed:4242 () in
  let rng = Rng.create 616 in
  let t =
    Tpcc.setup e ~warehouses:2 ~districts_per_w:10 ~customers_per_district:60 ~items:1000
      ~rng
  in
  let step ~client:_ () = Tpcc.kind_name (Tpcc.run_mix t rng) in
  let r = Driver.run ~engine:e ~clients ~total_ops:p.tpcc_txs ~step in
  (match Tpcc.consistency_check t with
  | Ok () -> ()
  | Error err -> Printf.printf "!! TPC-C consistency violated: %s\n%!" err);
  r

type chain_result = {
  kops : float;  (** client ops per simulated second, in thousands *)
  mean_ns : float;  (** mean client-visible latency *)
  storage_bytes : int;  (** cluster NVM ({!Async.storage_bytes}) *)
  head_lock_waits : int;
      (** lock-wait events at the head during the measured ops; includes
          dependent writes that proceed without waiting for the tail ack *)
}

(* Chain run: [clients] closed-loop clients over an f=2 chain, each issuing
   its next op from the previous op's completion. A Kamino-Tx client lives
   on the head; a Traditional client pays the hop to the head on writes.
   Reads pay the hop to the tail in both modes. *)
let run_chain p mode workload ~clients =
  let hop_ns = 5000 in
  let c =
    Async.create ~engine_config:(engine_config p) ~hop_ns ~rpc_ns:1000 ~mode ~f:2
      ~value_size:p.value_size ~node_size:p.node_size ~seed:747 ()
  in
  let payload = String.make (p.value_size - 16) 'k' in
  let rec load k at =
    if k < p.chain_records then
      Async.submit c ~at (Op.Put (k, payload)) ~on_complete:(load (k + clients))
  in
  for i = 0 to clients - 1 do
    load i 0
  done;
  ignore (Async.run c);
  let head_locks = Engine.locks (Async.engine_at c (Async.head_id c)) in
  Locks.reset_stats head_locks;
  let start = Sim.now (Async.sim c) in
  let write_hop = match mode with Async.Traditional -> hop_ns | Async.Kamino_chain _ -> 0 in
  let wl = Ycsb.create workload ~record_count:p.chain_records ~theta:p.theta in
  let rng = Rng.create 515 in
  let lat = Metrics.hist (Metrics.create ()) "op" in
  let issued = ref 0 and finish = ref start in
  let rec next t0 =
    if !issued < p.chain_ops then begin
      incr issued;
      let complete t1 =
        Metrics.observe lat (t1 - t0);
        finish := max !finish t1;
        next t1
      in
      let write op = Async.submit c ~at:(t0 + write_hop) op ~on_complete:complete in
      match Ycsb.next wl rng with
      | Ycsb.Read k -> Async.read c ~at:(t0 + hop_ns) k ~on_result:(fun _ -> complete)
      | Ycsb.Update k | Ycsb.Insert k -> write (Op.Put (k, payload))
      | Ycsb.Rmw k -> write (Op.Append (k, ""))
      | Ycsb.Scan _ -> invalid_arg "Common.run_chain: the chain serves no scans"
    end
  in
  for _ = 1 to clients do
    next start
  done;
  ignore (Async.run c);
  (match Async.replicas_consistent c with
  | Ok () -> ()
  | Error e -> failwith ("Common.run_chain: " ^ e));
  let elapsed = !finish - start in
  {
    kops =
      (if elapsed = 0 then 0.0
       else float_of_int p.chain_ops /. (float_of_int elapsed /. 1e9) /. 1e3);
    mean_ns = Metrics.mean lat;
    storage_bytes = Async.storage_bytes c;
    head_lock_waits = Locks.wait_events head_locks;
  }

(* --- Performance-per-dollar pricing (Figure 16) --------------------------

   TCO stand-in (documented substitution): a server base price plus an NVM
   price per dataset-sized multiple. The paper's evaluation ran ~10 GB-scale
   datasets on 112 GB VMs where memory dominates the bill; our scaled heap
   is tiny, so pricing is per heap-equivalent rather than per raw GB to
   preserve the figure's shape. Only ratios matter. *)

let server_base_usd = 2000.0

let usd_per_dataset = 2000.0

let dollars p storage_bytes =
  server_base_usd
  +. (float_of_int storage_bytes /. float_of_int p.heap_bytes *. usd_per_dataset)

(* --- Table formatting ---------------------------------------------------- *)

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let row_format widths cells =
  String.concat "  "
    (List.map2 (fun w c -> Printf.sprintf "%-*s" w c) widths cells)

let print_table ~cols rows =
  let widths =
    List.mapi
      (fun i c -> List.fold_left (fun acc r -> max acc (String.length (List.nth r i))) (String.length c) rows)
      cols
  in
  Printf.printf "%s\n" (row_format widths cols);
  Printf.printf "%s\n" (row_format widths (List.map (fun w -> String.make w '-') widths));
  List.iter (fun r -> Printf.printf "%s\n" (row_format widths r)) rows

let f1 v = Printf.sprintf "%.1f" v

let f2 v = Printf.sprintf "%.2f" v

let f3 v = Printf.sprintf "%.3f" v

let us_of_ns ns = ns /. 1000.0
