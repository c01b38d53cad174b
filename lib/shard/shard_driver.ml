module Region = Kamino_nvm.Region
module Clock = Kamino_sim.Clock
module Metrics = Kamino_obs.Metrics
module Driver = Kamino_workload.Driver

let home ~shards client = client mod shards

(* The driver mirrors Driver.run with two changes: each client is pinned
   to a home shard (round-robin) and carries a fixed operation quota
   instead of drawing from a global pool. The quota is what makes a
   shard's sub-workload self-contained, and self-containment is what
   makes the *decomposition* valid: the global furthest-behind pick,
   restricted to one shard's clients, is exactly that shard's local
   furthest-behind pick (clients never migrate, quotas are fixed, and no
   cross-shard state feeds the choice). So the driver executes each
   shard as an independent *lane* — its clients, their clocks and
   quotas, its latency histograms — and the lane's operation stream is the
   same whether lanes run interleaved on one domain or concurrently on
   many. test_shard.ml holds the per-shard timelines to a standalone
   engine bit-for-bit, and the parallel-vs-sequential oracle fingerprints
   whole heaps across [domains] settings. *)

type lane = {
  l_shard : int;
  l_clients : int array;  (* global client ids, ascending *)
  l_quota : int array;  (* indexed like [l_clients] *)
  l_clocks : Clock.t array;
  l_start : int;  (* shard timeline at lane start (post-load) *)
  mutable l_remaining : int;
  l_latencies : Metrics.t;  (* one histogram per op label *)
  mutable l_elapsed : int;
}

let make_lanes ~shard ~clients ~total_ops =
  let shards = Shard.shards shard in
  let quota_of c = (total_ops / clients) + if c < total_ops mod clients then 1 else 0 in
  Array.init shards (fun s ->
      let mine =
        Array.of_list
          (List.filter (fun c -> home ~shards c = s) (List.init clients Fun.id))
      in
      let quota = Array.map quota_of mine in
      (* Each client starts after whatever already happened on its home
         shard's timeline (the load phase). *)
      let start = Kamino_core.Engine.now (Shard.engine shard s) in
      {
        l_shard = s;
        l_clients = mine;
        l_quota = quota;
        l_clocks = Array.map (fun _ -> Clock.create_at start) mine;
        l_start = start;
        l_remaining = Array.fold_left ( + ) 0 quota;
        l_latencies = Metrics.create ();
        l_elapsed = 0;
      })

(* One full lane: the furthest-behind client with quota left runs next,
   progress measured from the lane's own start so shards whose load
   phases ended at different times are compared fairly. *)
let exec_lane ~shard ~step lane =
  let n = Array.length lane.l_clients in
  while lane.l_remaining > 0 do
    let pick = ref (-1) in
    let behind = ref max_int in
    for k = 0 to n - 1 do
      let p = Clock.now lane.l_clocks.(k) - lane.l_start in
      if lane.l_quota.(k) > 0 && p < !behind then begin
        pick := k;
        behind := p
      end
    done;
    let k = !pick in
    lane.l_quota.(k) <- lane.l_quota.(k) - 1;
    lane.l_remaining <- lane.l_remaining - 1;
    let clock = lane.l_clocks.(k) in
    Shard.set_clock shard lane.l_shard clock;
    let t0 = Clock.now clock in
    let label = step ~client:lane.l_clients.(k) ~shard_id:lane.l_shard () in
    Metrics.observe (Metrics.hist lane.l_latencies label) (Clock.now clock - t0)
  done;
  let m = ref 0 in
  Array.iter (fun clk -> m := max !m (Clock.now clk - lane.l_start)) lane.l_clocks;
  lane.l_elapsed <- !m

(* Merge lane results into one Driver.result, label by label. Histogram
   merges are integer sums, so the result does not depend on which
   domain finished first. *)
let merge_lanes ~total_ops lanes =
  let latencies = Metrics.create () in
  Array.iter
    (fun lane ->
      Metrics.fold_hists lane.l_latencies ~init:() ~f:(fun () label h ->
          Metrics.merge ~into:(Metrics.hist latencies label) h))
    lanes;
  let elapsed_ns = Array.fold_left (fun m lane -> max m lane.l_elapsed) 0 lanes in
  Driver.result_of ~total_ops ~elapsed_ns latencies

(* Run [body d] for every [d < nd]: [d = 0] on the calling domain, the
   rest on spawned ones. Every spawned domain is joined whatever any
   body raised, then the first exception in domain order is re-raised.
   Each domain hands its flushed regions off before another may use
   them: the caller before spawning, a spawned domain when its body
   ends. *)
let on_domains nd body =
  let attempt f =
    match f () with () -> None | exception e -> Some (e, Printexc.get_raw_backtrace ())
  in
  let spawned = ref [] in
  Region.hand_off ();
  let first =
    attempt (fun () ->
        for d = 1 to nd - 1 do
          spawned :=
            Domain.spawn (fun () -> Fun.protect ~finally:Region.hand_off (fun () -> body d))
            :: !spawned
        done;
        body 0)
  in
  let rest = List.rev_map (fun dom -> attempt (fun () -> Domain.join dom)) !spawned in
  match List.find_map Fun.id (first :: rest) with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let run ?(domains = 1) ~shard ~clients ~total_ops ~step () =
  if clients <= 0 then invalid_arg "Shard_driver.run: clients must be positive";
  if domains <= 0 then invalid_arg "Shard_driver.run: domains must be positive";
  let shards = Shard.shards shard in
  let nd = max 1 (min domains shards) in
  let lanes = make_lanes ~shard ~clients ~total_ops in
  if nd = 1 then
    (* Sequential mode: lanes run to completion in shard order on the
       calling domain. (Interleaving lanes op-by-op would also be
       correct — lanes share nothing — but whole-lane order is what the
       parallel mode's per-domain loop produces, so both modes are the
       same code path per lane.) *)
    Array.iter (exec_lane ~shard ~step) lanes
  else begin
    (* Parallel mode: domain [d] owns lanes [s] with [s mod nd = d] and
       runs them in ascending shard order. Engines, clocks, rngs and obs
       rings of a lane are touched only by its owner, so no locks are
       needed — and no lane may reach into another shard, which
       [Shard.with_cross_tx] enforces while the run lasts. *)
    Shard.set_parallel shard true;
    Fun.protect
      ~finally:(fun () -> Shard.set_parallel shard false)
      (fun () ->
        on_domains nd (fun d ->
            Array.iter
              (fun lane -> if lane.l_shard mod nd = d then exec_lane ~shard ~step lane)
              lanes))
  end;
  merge_lanes ~total_ops lanes
