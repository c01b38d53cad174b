(* One run of one workload, in this order:

   1. generate the op stream from the seed (before any clock);
   2. set up [setup_reps] times, timing each, and keep the last instance;
   3. the fixed-op window: the modelled metrics and allocation;
   4. crash mid-transaction, recover, run the oracles;
   5. the wall window: more operations for [--seconds], cut into
      [segments] equal segments, the median segment rate reported;
   6. the end-of-run oracles;
   7. when traced, a second instance set up with the probe attached reruns
      steps 3-4, must reproduce every modelled metric bit for bit, and
      yields the per-layer metrics and the trace files. *)

module Obs = Kamino_obs.Obs

let workloads = [ "ycsb-a-zipf"; "ycsb-a-uniform-dyn"; "ycsb-e-scan"; "fs-smallfile"; "cluster-chain" ]

let make name ~scale ~seed ~checks ~plant =
  match name with
  | "fs-smallfile" -> Fs_workload.make ~scale ~seed ~checks ~plant
  | "cluster-chain" -> Cluster_workload.make ~scale ~seed ~checks ~plant
  | _ -> Kv_workloads.make name ~scale ~seed ~checks ~plant

let setup_reps = 5

let segments = 10

type opts = {
  scale : Workload.scale;
  seed : int;
  seconds : float;
  trace : bool;
  trace_dir : string;
  plant : bool;  (* plant a mirror lie: the oracles' own test *)
}

(* Medians are per kind of operation: a median over a 50/50 mix of fast
   reads and slow writes sits on the edge between the two and jumps
   between them from seed to seed. The tails are over all operations. *)
let modelled (m : Workload.model) =
  let s = Pct.sorted m.lat in
  let median write =
    float_of_int (Pct.nearest_rank (Pct.sorted_where m.lat (fun i -> m.is_write i = write)) 500)
  in
  [
    ("sim_ops_per_s", 1e9 *. Pct.per m.ops m.sim_ns);
    ("sim_read_p50_ns", median false);
    ("sim_write_p50_ns", median true);
    ("sim_p99_ns", float_of_int (Pct.nearest_rank s 990));
    ("sim_p999_ns", float_of_int (Pct.nearest_rank s 999));
    ("nvm_write_amp", Pct.per m.nvm_write_bytes m.user_bytes);
    ("space_amp", Pct.per m.storage_bytes m.live_user_bytes);
  ]

(* Operations for [seconds] of wall time; the median of the segment rates
   and the operations run. *)
let wall_window (inst : Workload.instance) ~seconds =
  let seg = seconds /. float_of_int segments in
  let t0 = Wall.now () in
  let rates = ref [] and done_segs = ref 0 in
  let seg_start = ref t0 and seg_ops = ref 0 and total = ref 0 in
  while !done_segs < segments do
    let n = inst.chunk () in
    seg_ops := !seg_ops + n;
    total := !total + n;
    let t = Wall.now () in
    if t -. t0 >= seg *. float_of_int (!done_segs + 1) then begin
      rates := (float_of_int !seg_ops /. (t -. !seg_start)) :: !rates;
      incr done_segs;
      seg_start := t;
      seg_ops := 0
    end
  done;
  (Pct.median !rates, !total)

type untraced = {
  model : Workload.model;
  recovery : Workload.recovery option;
  setup_s : float list;
  create_s : float list;
  load_s : float list;
  wall_rate : float;
  wall_ops : int;
}

let untraced_pass opts (w : Workload.t) =
  let last = ref None and setup_s = ref [] and create_s = ref [] and load_s = ref [] in
  for _ = 1 to setup_reps do
    last := None;
    Gc.full_major ();
    let inst, s = Wall.timed (fun () -> w.setup None) in
    setup_s := s :: !setup_s;
    create_s := inst.create_s :: !create_s;
    load_s := inst.load_s :: !load_s;
    last := Some inst
  done;
  let inst = Option.get !last in
  let model = inst.window () in
  let recovery = inst.after_window () in
  Gc.full_major ();
  let wall_rate, wall_ops = wall_window inst ~seconds:opts.seconds in
  inst.final_check ();
  { model; recovery; setup_s = !setup_s; create_s = !create_s; load_s = !load_s; wall_rate; wall_ops }

let recovery_ns = function None -> 0.0 | Some r -> float_of_int r.Workload.sim_ns

(* The traced rerun: per-layer metrics, and trace files in [trace_dir]. *)
let traced_pass opts (w : Workload.t) ~checks u =
  Gc.full_major ();
  let p = Probe.create ~obs:(Obs.create ~capacity:(1 lsl 16) ()) w.classes in
  let inst = w.setup (Some p) in
  let model = Probe.phase p "window" ~now:inst.sim_now inst.window in
  let recovery = inst.after_window () in
  let check name a b =
    if a <> b then
      Workload.error checks
        (Printf.sprintf "tracing changed %s: %s untraced, %s traced" name (Report.num a)
           (Report.num b))
  in
  List.iter2 (fun (n, a) (_, b) -> check n a b) (modelled u.model) (modelled model);
  check "recovery.sim_ns" (recovery_ns u.recovery) (recovery_ns recovery);
  let recovery_wall f = match u.recovery with None -> 0.0 | Some r -> f r in
  let layers =
    inst.layers ()
    @ [
        ("wall_ops_per_s", u.wall_rate);
        ("recovery.sim_ns", recovery_ns u.recovery);
        ("recovery.wall_s", recovery_wall (fun r -> r.Workload.recover_wall_s));
        ("recovery.crash_wall_s", recovery_wall (fun r -> r.Workload.crash_wall_s));
        ("oracle.wall_s", recovery_wall (fun r -> r.Workload.oracle_wall_s));
        ("setup.create_s", Pct.median u.create_s);
        ("setup.load_s", Pct.median u.load_s);
        ("gc.minor_collections_per_kop", 1000.0 *. Pct.per u.model.minor_gcs u.model.ops);
        ("gc.major_collections", float_of_int u.model.major_gcs);
        ("gc.promoted_words_per_op", u.model.promoted_words /. float_of_int u.model.ops);
        ("trace.wall_overhead", Pct.ratio model.wall_s u.model.wall_s);
      ]
  in
  (try Sys.mkdir opts.trace_dir 0o755 with Sys_error _ -> ());
  let base = Filename.concat opts.trace_dir w.name in
  Probe.write_perfetto p (base ^ ".perfetto.json");
  (model.ops, layers, base)

let run opts name =
  let t0 = Wall.now () in
  let checks = Workload.checks () in
  let w, gen_s =
    Wall.timed (fun () -> make name ~scale:opts.scale ~seed:opts.seed ~checks ~plant:opts.plant)
  in
  let u = untraced_pass opts w in
  let e2e =
    Report.pick Report.end_to_end
      ([
         ("setup_s", Pct.median u.setup_s);
         ("alloc_words_per_op", u.model.words /. float_of_int u.model.ops);
       ]
      @ modelled u.model)
  in
  let traced_ops, layers, trace_base =
    if opts.trace then
      let ops, layers, base = traced_pass opts w ~checks u in
      (ops, Report.pick Report.per_layer (("workload.gen_s", gen_s) :: layers), Some base)
    else (0, [], None)
  in
  let r =
    {
      Report.workload = name;
      seed = opts.seed;
      scale = Workload.scale_name opts.scale;
      records = w.records;
      ops = w.ops;
      seconds = opts.seconds;
      traced = opts.trace;
      attempted = u.model.ops + u.wall_ops + traced_ops;
      failed = checks.failed;
      errors = List.rev checks.errors;
      e2e;
      layers;
      wall_ops_per_s = u.wall_rate;
      wall_s = Wall.since t0;
    }
  in
  Option.iter
    (fun base ->
      Out_channel.with_open_text (base ^ ".layers.json") (fun oc ->
          output_string oc (Report.record r ^ "\n")))
    trace_base;
  r
