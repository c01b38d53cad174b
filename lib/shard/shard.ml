(* Sharded multi-engine façade. The heap is partitioned across [n]
   fully independent engine instances — per-shard region, intent log,
   backup, applier, clock and obs tracks — so non-dependent transactions
   on different shards never share an applier timeline or an intent-log
   ring. This is the paper's §4.3 scaling argument taken one step
   further: within a shard only dependent transactions wait for backup
   catch-up; across shards nothing is shared at all.

   Single-shard transactions run exactly as on a standalone engine (the
   façade adds zero simulated cost — test_shard.ml pins per-shard sim-ns
   to a standalone engine run of the same sub-workload). Cross-shard
   transactions use ordered shard acquisition (ascending shard id, which
   makes deadlock impossible under the serial data-level execution) and
   two-phase commit against a persistent commit marker:

     prepare each shard (write set + intent record durable, still
         Running)
     -> write marker payload (participant (shard, tx_id) pairs), flush,
        fence
     -> set marker valid flag, flush, fence          <- the commit point
     -> commit_prepared each shard (mark Committed, enqueue propagation,
        release locks at applier finish)
     -> clear marker, flush, fence

   Crash recovery reads the marker first. Valid marker: every listed
   participant whose intent record still says Running is promoted —
   rolled forward — which is safe because prepare made its in-place
   writes durable before the valid flag could exist. No (valid) marker:
   every Running record rolls back as usual. Either way the cross-shard
   transaction is all-or-nothing. *)

module Region = Kamino_nvm.Region
module Clock = Kamino_sim.Clock
module Obs = Kamino_obs.Obs
module Engine = Kamino_core.Engine

type t = { engines : Engine.t array; marker : Region.t; s_obs : Obs.t }

(* Deterministic key->shard router: a multiplicative mix so consecutive
   keys spread across shards (plain [key mod shards] would stripe YCSB's
   dense key space but correlate with any strided access pattern). *)
let route_key ~shards key =
  if shards <= 0 then invalid_arg "Shard.route_key: shards must be positive";
  let h = key * 0x9e3779b97f4a7 in
  let h = h lxor (h lsr 31) in
  (h land max_int) mod shards

(* Marker layout (all 8-byte words): [0] valid flag, [8] participant
   count, then per participant [16+16k] shard id, [24+16k] tx id. One
   cross-shard commit is in flight at a time (execution is serial at the
   data level), so one record suffices. *)
let marker_size ~shards =
  let need = 16 + (16 * shards) in
  ((need + 4095) / 4096) * 4096

let create ?(config = Engine.default_config) ?(obs = Obs.null) ?shard_obs
    ?(obs_track_base = 1) ~kind ~seed ~shards () =
  if shards <= 0 then invalid_arg "Shard.create: shards must be positive";
  (match shard_obs with
  | Some rings when Array.length rings <> shards ->
      invalid_arg "Shard.create: shard_obs length must equal shards"
  | _ -> ());
  let engines =
    Array.init shards (fun i ->
        (* With [shard_obs], shard [i]'s events land in its own ring — the
           only mutator is the shard's executor domain, so tracing stays
           lock-free under the parallel driver; [Obs.merged] rebuilds the
           global timeline deterministically. *)
        let ring =
          match shard_obs with Some rings -> rings.(i) | None -> obs
        in
        let e =
          Engine.create ~config ~obs:ring ~obs_track:(obs_track_base + (4 * i))
            ~kind ~seed:(seed + i) ()
        in
        if Obs.enabled ring then begin
          let base = obs_track_base + (4 * i) in
          Obs.name_track ring base (Printf.sprintf "shard%d.tx" i);
          Obs.name_track ring (base + 1) (Printf.sprintf "shard%d.applier" i);
          Obs.name_track ring (base + 2) (Printf.sprintf "shard%d.nvm" i)
        end;
        e)
  in
  let marker =
    Region.create ~cost:config.Engine.cost ~crash_mode:config.Engine.crash_mode
      ~rng:(Kamino_sim.Rng.create (seed lxor 0x5bd1))
      ~clock:(Clock.create ()) ~size:(marker_size ~shards) ()
  in
  { engines; marker; s_obs = obs }

let shards t = Array.length t.engines

let engine t i = t.engines.(i)

let kind t = Engine.kind t.engines.(0)

let route t key = route_key ~shards:(Array.length t.engines) key

let obs t = t.s_obs

let marker_region t = t.marker

let storage_bytes t =
  Array.fold_left (fun acc e -> acc + Engine.storage_bytes e) 0 t.engines
  + Region.size t.marker

let set_clock t i clk = Engine.set_clock t.engines.(i) clk

let with_tx t i f = Engine.with_tx t.engines.(i) f

(* --- Cross-shard transactions ------------------------------------------- *)

let write_marker t pairs =
  let m = t.marker in
  Region.write_int m 8 (List.length pairs);
  List.iteri
    (fun k (shard, txid) ->
      Region.write_int m (16 + (16 * k)) shard;
      Region.write_int m (24 + (16 * k)) txid)
    pairs;
  Region.flush m 8 (8 + (16 * List.length pairs));
  Region.fence m;
  (* The commit point: the valid flag becomes durable strictly after the
     payload it covers. *)
  Region.write_int m 0 1;
  Region.flush m 0 8;
  Region.fence m

let clear_marker t =
  let m = t.marker in
  Region.write_int m 0 0;
  Region.flush m 0 8;
  Region.fence m

let read_marker t =
  let m = t.marker in
  if Region.read_int m 0 <> 1 then []
  else
    let n = Region.read_int m 8 in
    List.init n (fun k ->
        (Region.read_int m (16 + (16 * k)), Region.read_int m (24 + (16 * k))))

let with_cross_tx t shard_ids f =
  let ids = List.sort_uniq compare shard_ids in
  (match ids with
  | [] -> invalid_arg "Shard.with_cross_tx: no participant shards"
  | _ ->
      List.iter
        (fun i ->
          if i < 0 || i >= Array.length t.engines then
            invalid_arg (Printf.sprintf "Shard.with_cross_tx: no shard %d" i))
        ids);
  (* Ordered acquisition: begin on every participant in ascending shard
     id. All participants share the coordinating client's clock so the
     transaction has one coherent timeline. *)
  let clk = Engine.clock t.engines.(List.hd ids) in
  List.iter (fun i -> Engine.set_clock t.engines.(i) clk) ids;
  let txs = List.map (fun i -> (i, Engine.begin_tx t.engines.(i))) ids in
  let tx_of i =
    match List.assoc_opt i txs with
    | Some tx -> tx
    | None -> invalid_arg (Printf.sprintf "Shard.with_cross_tx: shard %d is not a participant" i)
  in
  match f tx_of with
  | exception exn ->
      (* User code failed before the commit protocol started: roll every
         participant back, newest first. Kinds that cannot abort locally
         surface their typed error unless one is already in flight. *)
      List.iter
        (fun (_, tx) -> try Engine.abort tx with Engine.Error _ -> ())
        (List.rev txs);
      raise exn
  | v ->
      List.iter (fun (_, tx) -> Engine.prepare tx) txs;
      Region.set_clock t.marker clk;
      write_marker t (List.map (fun (i, tx) -> (i, Engine.tx_id tx)) txs);
      List.iter (fun (_, tx) -> Engine.commit_prepared tx) txs;
      clear_marker t;
      v

(* --- Crash and recovery -------------------------------------------------- *)

let crash t =
  Array.iter Engine.crash t.engines;
  Region.crash t.marker

let recover t =
  let marked = read_marker t in
  Array.iteri
    (fun i e ->
      Engine.recover ~promote_running:(fun txid -> List.mem (i, txid) marked) e)
    t.engines;
  (* Decision fully applied on every shard; retire the marker. *)
  if marked <> [] then clear_marker t

let drain_backups t = Array.iter Engine.drain_backup t.engines

(* Per-shard commit watermarks: shard [i]'s applier publishes its own
   [(task_id, wm_ns)] independently — there is no global watermark, which
   is exactly the per-shard consistency contract of sharded snapshot
   reads (DESIGN.md par12). *)
let watermarks t = Array.map Engine.snapshot_watermark t.engines

let verify_backups t =
  let rec go i =
    if i >= Array.length t.engines then Ok ()
    else
      match Engine.verify_backup t.engines.(i) with
      | Ok () -> go (i + 1)
      | Error e -> Error (Printf.sprintf "shard %d: %s" i e)
  in
  go 0

(* --- Aggregate metrics --------------------------------------------------- *)

let committed t =
  Array.fold_left (fun acc e -> acc + (Engine.metrics e).Engine.committed) 0 t.engines

let aborted t =
  Array.fold_left (fun acc e -> acc + (Engine.metrics e).Engine.aborted) 0 t.engines
