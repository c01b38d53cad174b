(* cluster-chain: the paper's §5 variant. Three shard-chains of f+2 = 3
   Kamino replicas each, driven open loop: operations arrive on a schedule
   whatever the cluster's progress, so latency is timed from each
   operation's due time and a stall shows as queueing. The window runs in
   drained batches.

   Writes are mirrored by the chain sequence number their head assigns,
   so the mirror knows each key's last write even where a single put and
   a cross-chain multi_put race; after the window every key is read back
   at its tail and [Cluster.verify] checks quiescence, replica agreement
   and every head's backup. *)

module Engine = Kamino_core.Engine
module Region = Kamino_nvm.Region
module Rng = Kamino_sim.Rng
module Sim = Kamino_sim.Engine
module Op = Kamino_chain.Op
module Async = Kamino_chain.Async_chain
module Cluster = Kamino_cluster.Cluster
module Metrics = Kamino_obs.Metrics

let shards = 3

let f = 1

let value_size = 64

let payload_len = 48

let batches = 10

(* Operations per wall-window batch. *)
let chunk_ops = 512

(* Operation codes, also the probe's class indices. *)
let op_single = 0

let op_cross = 1

let op_read = 2

let classes = [| "cluster.single"; "cluster.cross"; "cluster.read" |]

let config =
  {
    Engine.default_config with
    Engine.heap_bytes = 4 * 1024 * 1024;
    log_slots = 64;
    data_log_bytes = 1 lsl 17;
  }

(* [gap] is the arrival gap before the operation; [keys.(i)] its keys
   (one, or two or three distinct ones for a multi_put). *)
type stream = { gap : int array; code : int array; keys : int array array; ver : int array }

let generate ~keys ~ops ~seed =
  let rng = Rng.create seed in
  let gap = Array.make ops 0 and code = Array.make ops 0 and ver = Array.make ops 0 in
  let ks = Array.make ops [||] in
  for i = 0 to ops - 1 do
    gap.(i) <- 1_200 + Rng.int rng 2_400;
    ver.(i) <- Rng.int rng 256;
    let r = Rng.int rng 8 in
    if r < 4 then begin
      code.(i) <- op_read;
      ks.(i) <- [| Rng.int rng keys |]
    end
    else if r < 7 then begin
      code.(i) <- op_single;
      ks.(i) <- [| Rng.int rng keys |]
    end
    else begin
      code.(i) <- op_cross;
      let n = 2 + Rng.int rng 2 in
      let rec draw acc =
        if List.length acc = n then Array.of_list (List.rev acc)
        else
          let k = Rng.int rng keys in
          draw (if List.mem k acc then acc else k :: acc)
      in
      ks.(i) <- draw []
    end
  done;
  { gap; code; keys = ks; ver }

type st = {
  c : Cluster.t;
  s : stream;
  pool : string array;
  last_seq : int array;  (* mirror: per key, the chain sequence of its last write ... *)
  last_ver : int array;  (* ... and that write's payload version *)
  checks : Workload.checks;
  mutable completed : int;
  mutable last_done : int;
  mutable cursor : int;
  mutable layers : (string * float) list;
}

let note st k ~seq v =
  if seq > st.last_seq.(k) then begin
    st.last_seq.(k) <- seq;
    st.last_ver.(k) <- v
  end

let engines c =
  List.concat
    (List.init shards (fun s ->
         let ch = Cluster.chain c s in
         List.init (Async.length ch) (Async.engine_at ch)))

(* Submit operation [i] due at [at]; [record i at done_ns] runs when it
   completes. *)
let submit st i ~at ~record =
  let v = st.s.ver.(i) and ks = st.s.keys.(i) in
  let complete t =
    st.completed <- st.completed + 1;
    if t > st.last_done then st.last_done <- t;
    record i at t
  in
  let code = st.s.code.(i) in
  if code = op_read then
    Cluster.read st.c ~at ks.(0) ~on_result:(fun r t ->
        (match r with
        | Some s when Workload.in_pool st.pool s -> ()
        | _ -> Workload.fail st.checks);
        complete t)
  else if code = op_single then
    let k = ks.(0) in
    Cluster.submit st.c ~at
      ~on_submit:(fun ~shard:_ ~seq -> note st k ~seq v)
      (Op.Put (k, st.pool.(v)))
      ~on_complete:complete
  else
    let bindings = Array.to_list (Array.map (fun k -> (k, st.pool.(v))) ks) in
    Cluster.multi_put st.c ~at
      ~on_seq:(fun ~shard ~seq ->
        Array.iter (fun k -> if Cluster.route st.c k = shard then note st k ~seq v) ks)
      bindings ~on_complete:complete

(* Submit operations [lo .. lo+count-1] (mod the stream length) on their
   arrival schedule from now, then drain. Returns the simulation events
   run, the span from first arrival to last completion, and how long the
   last completion trailed the last arrival. *)
let batch st ~lo ~count ~record =
  let n = Array.length st.s.code in
  let at = ref (Sim.now (Cluster.sim st.c)) in
  let first = !at + st.s.gap.(lo mod n) in
  for j = 0 to count - 1 do
    let i = (lo + j) mod n in
    at := !at + st.s.gap.(i);
    submit st i ~at:!at ~record
  done;
  st.last_done <- !at;
  let events = Cluster.run st.c in
  (events, st.last_done - first, st.last_done - !at)

(* Every key read back at its tail against the mirror, then the
   cluster's own verification. *)
let check_cluster st where =
  let keys = Array.length st.last_ver in
  let at = Sim.now (Cluster.sim st.c) + 1_000 in
  let bad = ref 0 in
  for k = 0 to keys - 1 do
    Cluster.read st.c ~at k ~on_result:(fun r _ ->
        match r with
        | Some s when String.equal s st.pool.(st.last_ver.(k)) -> ()
        | _ -> incr bad)
  done;
  ignore (Cluster.run st.c);
  if !bad > 0 then
    Workload.error st.checks
      (Printf.sprintf "%s: %d of %d keys differ from their last write" where !bad keys);
  Workload.oracle st.checks (where ^ ": Cluster.verify") (Cluster.verify st.c)

let window st probe =
  let n = Array.length st.s.code in
  let lat = Array.make n 0 in
  let es = engines st.c in
  let marker = Region.counters (Cluster.marker_region st.c) in
  let marker_writes () = marker.Region.bytes_stored + marker.Region.bytes_copied in
  let a = Workload.totals es and m0 = marker_writes () in
  (* An open-loop operation has no wall interval of its own: its span is
     stamped with the wall time its completion was processed. *)
  let record =
    match probe with
    | None -> fun i at t -> lat.(i) <- t - at
    | Some p ->
        fun i at t ->
          lat.(i) <- t - at;
          let w = Wall.now () in
          Probe.op p ~cls:st.s.code.(i) ~t0:at ~t1:t ~w0:w ~w1:w
  in
  st.completed <- 0;
  let events = ref 0 and sim_ns = ref 0 and backlog = ref 0 in
  let (), words, wall_s, (minor_gcs, major_gcs, promoted_words) =
    Workload.metered (fun () ->
        for b = 0 to batches - 1 do
          let lo = b * n / batches and hi = (b + 1) * n / batches in
          let ev, span, trail = batch st ~lo ~count:(hi - lo) ~record in
          events := !events + ev;
          sim_ns := !sim_ns + span;
          backlog := max !backlog trail
        done)
  in
  if st.completed <> n then
    Workload.error st.checks (Printf.sprintf "window: %d of %d operations completed" st.completed n);
  let b = Workload.totals es in
  let written =
    Array.fold_left ( + ) 0
      (Array.mapi (fun i ks -> if st.s.code.(i) = op_read then 0 else Array.length ks) st.s.keys)
  in
  let reg = Cluster.registry st.c in
  st.layers <-
    Workload.engine_layers ~ops:n es a b
    @ Workload.class_percentiles classes lat ~cls_of:(fun i -> st.s.code.(i))
    @ [
        ("cluster.events_per_op", Pct.per !events n);
        ("cluster.backlog_ns", float_of_int !backlog);
        ("cluster.redrives", float_of_int (Cluster.redrives st.c));
        ("cluster.re_prepares", float_of_int (Metrics.value (Metrics.counter reg "cluster.re_prepares")));
      ]
    @ (match probe with None -> [] | Some p -> Probe.metrics p ~ops:n ~sim_ns:!sim_ns);
  {
    Workload.ops = n;
    sim_ns = !sim_ns;
    lat;
    is_write = (fun i -> st.s.code.(i) <> op_read);
    nvm_write_bytes = Workload.nvm_writes b - Workload.nvm_writes a + marker_writes () - m0;
    user_bytes = written * payload_len;
    storage_bytes = Workload.storage_bytes es;
    live_user_bytes = Array.length st.last_ver * payload_len;
    words;
    wall_s;
    minor_gcs;
    major_gcs;
    promoted_words;
  }

let chunk st () =
  let n = Array.length st.s.code in
  ignore (batch st ~lo:st.cursor ~count:chunk_ops ~record:(fun _ _ _ -> ()));
  st.cursor <- (st.cursor + chunk_ops) mod n;
  chunk_ops

let setup ~keys s ~checks ~plant probe =
  let pool = Workload.pool ~len:payload_len in
  let c, create_s =
    Workload.phase probe "setup.create" ~now:(fun () -> 0) (fun () ->
        Cluster.create ~engine_config:config ~hop_ns:5_000 ~rpc_ns:500 ~promote_ns:40_000 ~shards
          ~f ~value_size ~node_size:512 ~seed:747 ())
  in
  let st =
    {
      c;
      s;
      pool;
      last_seq = Array.make keys (-1);
      last_ver = Array.make keys 0;
      checks;
      completed = 0;
      last_done = 0;
      cursor = 0;
      layers = [];
    }
  in
  let (), load_s =
    Workload.phase probe "setup.load" ~now:(fun () -> Sim.now (Cluster.sim c)) (fun () ->
        (* In drained batches: the chains' persistent input queues are
           bounded. *)
        for k = 0 to keys - 1 do
          let v = k land 255 in
          Cluster.submit c
            ~at:(Sim.now (Cluster.sim c) + 500)
            ~on_submit:(fun ~shard:_ ~seq -> note st k ~seq v)
            (Op.Put (k, pool.(v)))
            ~on_complete:ignore;
          if k mod 256 = 255 || k = keys - 1 then ignore (Cluster.run c)
        done)
  in
  (* The oracle's own test plants a lie in the mirror of a key the stream
     never writes. *)
  if plant then begin
    let written = Array.make keys false in
    Array.iteri
      (fun i ks -> if s.code.(i) <> op_read then Array.iter (fun k -> written.(k) <- true) ks)
      s.keys;
    Option.iter
      (fun k -> st.last_ver.(k) <- (st.last_ver.(k) + 1) land 255)
      (List.find_opt (fun k -> not written.(k)) (List.init keys Fun.id))
  end;
  {
    Workload.sim_now = (fun () -> Sim.now (Cluster.sim c));
    create_s;
    load_s;
    window = (fun () -> window st probe);
    after_window =
      (fun () ->
        check_cluster st "after the window";
        None);
    chunk = chunk st;
    final_check = (fun () -> check_cluster st "after the wall window");
    layers = (fun () -> st.layers);
  }

let make ~scale ~seed ~checks ~plant =
  let keys, ops =
    match scale with Workload.Full -> (16_384, 40_000) | Workload.Smoke -> (1024, 4096)
  in
  let s = generate ~keys ~ops ~seed in
  {
    Workload.name = "cluster-chain";
    classes;
    records = keys;
    ops;
    setup = setup ~keys s ~checks ~plant;
  }
