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
   two-phase commit against a persistent commit marker
   ({!Kamino_nvm.Commit_marker}, one [(shard, tx_id)] entry per
   participant):

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
module Commit_marker = Kamino_nvm.Commit_marker
module Clock = Kamino_sim.Clock
module Obs = Kamino_obs.Obs
module Engine = Kamino_core.Engine

(* [parallel] is set by [Shard_driver.run] while lanes run on several
   domains: each engine then has one owning domain, and a cross-shard
   transaction would drive engines it does not own. *)
type t = { engines : Engine.t array; marker : Commit_marker.t; mutable parallel : bool }

(* Deterministic key->shard router: a multiplicative mix so consecutive
   keys spread across shards (plain [key mod shards] would stripe YCSB's
   dense key space but correlate with any strided access pattern). *)
let route_key ~shards key =
  if shards <= 0 then invalid_arg "Shard.route_key: shards must be positive";
  let h = key * 0x9e3779b97f4a7 in
  let h = h lxor (h lsr 31) in
  (h land max_int) mod shards

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
  (* One cross-shard commit is in flight at a time (execution is serial
     at the data level), so one marker suffices. *)
  let marker =
    Commit_marker.create ~cost:config.Engine.cost ~crash_mode:config.Engine.crash_mode
      ~seed ~clock:(Clock.create ()) ~entry_words:2 ~max_entries:shards
  in
  { engines; marker; parallel = false }

let shards t = Array.length t.engines

let engine t i = t.engines.(i)

let route t key = route_key ~shards:(Array.length t.engines) key

let marker t = t.marker

let set_parallel t on = t.parallel <- on

let set_clock t i clk = Engine.set_clock t.engines.(i) clk

let with_tx t i f = Engine.with_tx t.engines.(i) f

(* --- Cross-shard transactions ------------------------------------------- *)

let with_cross_tx t shard_ids f =
  if t.parallel then
    invalid_arg "Shard.with_cross_tx: lanes run on several domains";
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
      Region.set_clock (Commit_marker.region t.marker) clk;
      let parts = Array.of_list txs in
      Commit_marker.write t.marker (Array.length parts) (fun k j ->
          let i, tx = parts.(k) in
          if j = 0 then i else Engine.tx_id tx);
      List.iter (fun (_, tx) -> Engine.commit_prepared tx) txs;
      Commit_marker.clear t.marker;
      v

(* --- Crash and recovery -------------------------------------------------- *)

let crash t =
  Array.iter Engine.crash t.engines;
  Region.crash (Commit_marker.region t.marker)

let recover t =
  let marked = Commit_marker.read t.marker in
  let listed i txid =
    match marked with Some es -> Array.mem [| i; txid |] es | None -> false
  in
  Array.iteri (fun i e -> Engine.recover ~promote_running:(listed i) e) t.engines;
  (* Decision fully applied on every shard; retire the marker. *)
  if Option.is_some marked then Commit_marker.clear t.marker

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
