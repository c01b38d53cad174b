module Clock = Kamino_sim.Clock
module Engine = Kamino_core.Engine
module Metrics = Kamino_obs.Metrics

type result = {
  total_ops : int;
  elapsed_ns : int;
  throughput_mops : float;
  mean_latency_ns : float;
  latencies : (string * Metrics.hist) list;
}

let result_of ~total_ops ~elapsed_ns latencies =
  let latencies =
    List.rev (Metrics.fold_hists latencies ~init:[] ~f:(fun acc l h -> (l, h) :: acc))
  in
  let n = List.fold_left (fun acc (_, h) -> acc + Metrics.count h) 0 latencies in
  let total = List.fold_left (fun acc (_, h) -> acc + Metrics.sum h) 0 latencies in
  {
    total_ops;
    elapsed_ns;
    throughput_mops =
      (if elapsed_ns = 0 then 0.0
       else float_of_int total_ops /. (float_of_int elapsed_ns /. 1e9) /. 1e6);
    mean_latency_ns = float_of_int total /. float_of_int n;
    latencies;
  }

let run ~engine ~clients ~total_ops ~step =
  if clients <= 0 then invalid_arg "Driver.run: clients must be positive";
  (* Clients begin after whatever already happened on the engine's timeline
     (the load phase); otherwise their first operations would spuriously
     "wait" for load-time lock releases. *)
  let start = Engine.now engine in
  let clocks = Array.init clients (fun _ -> Clock.create_at start) in
  let latencies = Metrics.create () in
  for _ = 1 to total_ops do
    (* The client furthest behind in virtual time runs next; this is the
       conservative discrete-event order that makes lock release times
       known before any later client observes them. *)
    let client = ref 0 in
    for c = 1 to clients - 1 do
      if Clock.now clocks.(c) < Clock.now clocks.(!client) then client := c
    done;
    let clock = clocks.(!client) in
    Engine.set_clock engine clock;
    let t0 = Clock.now clock in
    let label = step ~client:!client () in
    Metrics.observe (Metrics.hist latencies label) (Clock.now clock - t0)
  done;
  let elapsed_ns = Array.fold_left (fun acc c -> max acc (Clock.now c)) start clocks - start in
  result_of ~total_ops ~elapsed_ns latencies

let latency_of result label = List.assoc_opt label result.latencies

let pp_result fmt r =
  Format.fprintf fmt "%d ops in %.3f ms: %.3f M ops/s, mean latency %.0f ns" r.total_ops
    (float_of_int r.elapsed_ns /. 1e6)
    r.throughput_mops r.mean_latency_ns
