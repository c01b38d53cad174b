(* The three key-value workloads: YCSB streams against [Kv] over one
   engine, driven by 8 virtual clients.

   The whole op stream is generated into int arrays before any clock
   starts, so generator cost stays out of every window. Every read is
   checked against a volatile mirror of key -> payload version, every scan
   for dense keys, count and values. *)

module Engine = Kamino_core.Engine
module Backup = Kamino_core.Backup
module Intent_log = Kamino_core.Intent_log
module Clock = Kamino_sim.Clock
module Rng = Kamino_sim.Rng
module Kv = Kamino_kv.Kv
module Ycsb = Kamino_workload.Ycsb
module Metrics = Kamino_obs.Metrics

let clients = 8

let value_size = 256

let payload_len = 240

let node_size = 1024

(* Operation codes, also the probe's class indices. *)
let op_get = 0

let op_put = 1

let op_scan = 2

let op_insert = 3

let classes = [| "kv.get"; "kv.put"; "kv.scan"; "kv.insert" |]

(* Operations per wall-window chunk. *)
let chunk_ops = 256

type shape = {
  kind : Engine.kind;
  ycsb : Ycsb.workload;
  uniform : bool;
  records : int;
  ops : int;
}

let shape name scale =
  let records, ops =
    match scale with Workload.Full -> (200_000, 200_000) | Workload.Smoke -> (4096, 4096)
  in
  match name with
  | "ycsb-a-zipf" -> { kind = Engine.Kamino_simple; ycsb = Ycsb.A; uniform = false; records; ops }
  | "ycsb-a-uniform-dyn" ->
      {
        kind = Engine.Kamino_dynamic { alpha = 0.5; policy = Backup.Lru_policy };
        ycsb = Ycsb.A;
        uniform = true;
        records;
        ops;
      }
  | "ycsb-e-scan" -> { kind = Engine.Kamino_simple; ycsb = Ycsb.E; uniform = false; records; ops }
  | _ -> invalid_arg ("Kv_workloads.shape: " ^ name)

(* The op stream: [arg] is the payload version of a put or insert and the
   length of a scan. *)
type stream = { code : int array; key : int array; arg : int array; key_space : int }

let generate sh ~seed =
  let w = Ycsb.create ~uniform:sh.uniform sh.ycsb ~record_count:sh.records ~theta:0.99 in
  let rng = Rng.create seed in
  let versions = Rng.split rng in
  let code = Array.make sh.ops 0 and key = Array.make sh.ops 0 and arg = Array.make sh.ops 0 in
  for i = 0 to sh.ops - 1 do
    let c, k, a =
      match Ycsb.next w rng with
      | Ycsb.Read k -> (op_get, k, 0)
      | Ycsb.Update k -> (op_put, k, Rng.int versions 256)
      | Ycsb.Insert k -> (op_insert, k, Rng.int versions 256)
      | Ycsb.Scan (k, n) -> (op_scan, k, n)
      | Ycsb.Rmw _ -> invalid_arg "Kv_workloads.generate: no read-modify-write stream"
    in
    code.(i) <- c;
    key.(i) <- k;
    arg.(i) <- a
  done;
  { code; key; arg; key_space = Ycsb.key_space w }

(* A record takes ~530 heap bytes (a 512 B value object plus its share of
   the index); the heap gets ~20% headroom, and room for twice the 5%
   inserts of a YCSB-E stream, so a dynamic backup of alpha * heap cannot
   hold every record. *)
let config sh =
  let inserts = if sh.ycsb = Ycsb.E then sh.ops * 64 else 0 in
  {
    Engine.default_config with
    Engine.heap_bytes = max (8 * 1024 * 1024) ((sh.records * 640) + inserts);
    log_slots = 256;
  }

type scan_check = { mutable next : int; mutable bad : bool }

type st = {
  e : Engine.t;
  mutable kv : Kv.t;
  s : stream;
  pool : string array;
  mirror : int array;  (* payload version per key, -1 when absent *)
  mutable key_space : int;  (* keys 0 .. key_space-1 are present *)
  mutable clocks : Clock.t array;
  mutable cursor : int;  (* next wall-window operation *)
  checks : Workload.checks;
  scan : scan_check;
  scan_cb : int -> string -> unit;
  mutable scan_keys : int;
  mutable layers : (string * float) list;
}

let matches st k v =
  k >= 0 && k < Array.length st.mirror && st.mirror.(k) >= 0
  && String.equal v st.pool.(st.mirror.(k))

let exec st i =
  let k = st.s.key.(i) and c = st.s.code.(i) in
  if c = op_get then begin
    match Kv.get st.kv k with
    | Some v when matches st k v -> ()
    | _ -> Workload.fail st.checks
  end
  else if c = op_scan then begin
    let want = st.s.arg.(i) in
    st.scan.next <- k;
    st.scan.bad <- false;
    let n = Kv.scan st.kv ~lo:k ~count:want st.scan_cb in
    st.scan_keys <- st.scan_keys + n;
    if st.scan.bad || n <> min want (st.key_space - k) then Workload.fail st.checks
  end
  else begin
    let v = st.s.arg.(i) in
    Kv.put st.kv k st.pool.(v);
    st.mirror.(k) <- v;
    if k >= st.key_space then st.key_space <- k + 1
  end

(* Every binding against the mirror, plus the store's own validation and
   the backup invariant. *)
let check_store st where =
  Workload.oracle st.checks (where ^ ": Kv.validate") (Kv.validate st.kv);
  Workload.oracle st.checks (where ^ ": Engine.verify_backup") (Engine.verify_backup st.e);
  let seen = ref 0 and bad = ref 0 in
  Kv.iter st.kv (fun k v ->
      incr seen;
      if not (matches st k v) then incr bad);
  if !bad > 0 || !seen <> st.key_space then
    Workload.error st.checks
      (Printf.sprintf "%s: %d bindings, %d differ from the mirror of %d keys" where !seen !bad
         st.key_space)

let fresh_clocks st = st.clocks <- Array.init clients (fun _ -> Clock.create_at (Engine.now st.e))

let window st probe =
  let n = Array.length st.s.code in
  fresh_clocks st;
  let start = Engine.now st.e in
  let lat = Array.make n 0 in
  let il = Engine.intent_log st.e in
  let a = Workload.totals [ st.e ] in
  let (), words, wall_s, (minor_gcs, major_gcs, promoted_words) =
    Workload.metered (fun () ->
        for i = 0 to n - 1 do
          let clk = st.clocks.(Workload.next_client st.clocks) in
          Engine.set_clock st.e clk;
          let t0 = Clock.now clk in
          match probe with
          | None ->
              exec st i;
              lat.(i) <- Clock.now clk - t0
          | Some p ->
              let w0 = Wall.now () in
              exec st i;
              let w1 = Wall.now () in
              let t1 = Clock.now clk in
              lat.(i) <- t1 - t0;
              Probe.op p ~cls:st.s.code.(i) ~t0 ~t1 ~w0 ~w1;
              Option.iter (fun il -> Probe.free_slots p (Intent_log.free_slots il)) il
        done)
  in
  let sim_ns = Array.fold_left (fun m c -> max m (Clock.now c)) start st.clocks - start in
  let b = Workload.totals [ st.e ] in
  let count c = Array.fold_left (fun acc x -> if x = c then acc + 1 else acc) 0 st.s.code in
  let writes = count op_put + count op_insert and scans = count op_scan in
  Kv.sync_gauges st.kv;
  st.layers <-
    Workload.engine_layers ~ops:n [ st.e ] a b
    @ Workload.class_percentiles classes lat ~cls_of:(fun i -> st.s.code.(i))
    @ [
        ( "index.depth",
          float_of_int (Metrics.value (Metrics.counter (Engine.registry st.e) "btree.depth")) );
        ("kv.scan.keys_per_call", Pct.per st.scan_keys scans);
      ]
    @ (match probe with
      | None -> []
      | Some p ->
          List.init 3 (fun c -> (classes.(c) ^ ".wall_ns", Probe.wall_ns_per_call p c))
          @ Probe.metrics p ~ops:n ~sim_ns);
  {
    Workload.ops = n;
    sim_ns;
    lat;
    is_write = (fun i -> st.s.code.(i) = op_put || st.s.code.(i) = op_insert);
    nvm_write_bytes = Workload.nvm_writes b - Workload.nvm_writes a;
    user_bytes = writes * payload_len;
    storage_bytes = Engine.storage_bytes st.e;
    live_user_bytes = st.key_space * payload_len;
    words;
    wall_s;
    minor_gcs;
    major_gcs;
    promoted_words;
  }

(* Crash with a put in flight, recover, and check that the store holds
   exactly the mirror: the uncommitted put must have vanished. *)
let crash_recover st probe =
  let phase name f = Workload.phase probe name ~now:(fun () -> Engine.now st.e) f in
  let k = st.s.key.(0) in
  let tx = Engine.begin_tx st.e in
  Kv.put_tx tx st.kv k st.pool.((max 0 st.mirror.(k) + 1) land 255);
  let (), crash_wall_s = phase "crash" (fun () -> Engine.crash st.e) in
  let t0 = Engine.now st.e in
  let (), recover_wall_s = phase "recover" (fun () -> Engine.recover st.e) in
  let sim_ns = Engine.now st.e - t0 in
  let (), oracle_wall_s =
    phase "oracle" (fun () ->
        st.kv <- Kv.reattach st.e;
        check_store st "after recovery")
  in
  Some { Workload.sim_ns; crash_wall_s; recover_wall_s; oracle_wall_s }

let chunk st () =
  if st.cursor < 0 then begin
    fresh_clocks st;
    st.cursor <- 0
  end;
  let n = Array.length st.s.code in
  for _ = 1 to chunk_ops do
    Engine.set_clock st.e st.clocks.(Workload.next_client st.clocks);
    exec st st.cursor;
    st.cursor <- (st.cursor + 1) mod n
  done;
  chunk_ops

let setup sh (s : stream) ~checks ~plant probe =
  let pool = Workload.pool ~len:payload_len in
  let obs = Option.map Probe.obs probe in
  let e, create_s =
    Workload.phase probe "setup.create" ~now:(fun () -> 0) (fun () ->
        Engine.create ~config:(config sh) ?obs ~kind:sh.kind ~seed:90210 ())
  in
  let kv, load_s =
    Workload.phase probe "setup.load" ~now:(fun () -> Engine.now e) (fun () ->
        let kv = Kv.create e ~value_size ~node_size in
        Kv.load kv ~count:sh.records ~key:Fun.id ~value:(fun i -> pool.(i land 255));
        Engine.drain_backup e;
        kv)
  in
  let mirror = Array.make s.key_space (-1) in
  for k = 0 to sh.records - 1 do
    mirror.(k) <- k land 255
  done;
  (* The oracle's own test plants a lie in the mirror entry of the first
     key the stream reads before writing it. *)
  if plant then begin
    let written = Hashtbl.create 16 in
    let rec first i =
      let k = s.key.(i) in
      if s.code.(i) = op_get || s.code.(i) = op_scan then
        if Hashtbl.mem written k then first (i + 1) else k
      else begin
        Hashtbl.replace written k ();
        first (i + 1)
      end
    in
    let k = first 0 in
    mirror.(k) <- (mirror.(k) + 1) land 255
  end;
  let scan = { next = 0; bad = false } in
  let rec st =
    {
      e;
      kv;
      s;
      pool;
      mirror;
      key_space = sh.records;
      clocks = [||];
      cursor = -1;
      checks;
      scan;
      scan_cb =
        (fun k v ->
          if k <> scan.next || not (matches st k v) then scan.bad <- true;
          scan.next <- k + 1);
      scan_keys = 0;
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
    final_check = (fun () -> check_store st "after the wall window");
    layers = (fun () -> st.layers);
  }

let make name ~scale ~seed ~checks ~plant =
  let sh = shape name scale in
  let s = generate sh ~seed in
  { Workload.name; classes; records = sh.records; ops = sh.ops; setup = setup sh s ~checks ~plant }
