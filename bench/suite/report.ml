(* Metric names, units and output formats.

   End-to-end metrics come from the untraced run. The modelled ones are
   exact functions of the seed (simulated time, NVM counters, heap
   footprint); set-up time and allocation are measurements of this
   process. Wall throughput is not end-to-end: on a shared host it swings
   by more than any bound a gate may use (README, "Known gaps"), so it is
   printed on every run and reported with the per-layer metrics. Per-layer
   metrics come from the traced run; a workload that lacks a layer reports
   0 for it.

   Simulated time has the unit "sim-ns": nanoseconds of the cost model,
   which read the same on every run of a seed, and often of every seed.
   Wall time is in "s" or "ns". *)

type metric = { name : string; unit : string; value : float }

let end_to_end =
  [
    ("setup_s", "s");
    ("alloc_words_per_op", "words");
    ("sim_ops_per_s", "ops/s");
    ("sim_read_p50_ns", "sim-ns");
    ("sim_write_p50_ns", "sim-ns");
    ("sim_p99_ns", "sim-ns");
    ("sim_p999_ns", "sim-ns");
    ("nvm_write_amp", "ratio");
    ("space_amp", "ratio");
  ]

(* The end-to-end metrics the simulation determines; the traced run must
   reproduce them bit for bit. *)
let modelled =
  [
    "sim_ops_per_s";
    "sim_read_p50_ns";
    "sim_write_p50_ns";
    "sim_p99_ns";
    "sim_p999_ns";
    "nvm_write_amp";
    "space_amp";
  ]

(* p50 and p99 of each class of operation [layer.op]. *)
let class_percentiles layer ops =
  List.concat_map
    (fun op ->
      [
        (layer ^ "." ^ op ^ ".sim_p50_ns", "sim-ns"); (layer ^ "." ^ op ^ ".sim_p99_ns", "sim-ns");
      ])
    ops

let per_layer =
  List.concat
    [
      class_percentiles "kv" [ "get"; "put"; "scan"; "insert" ];
      List.map (fun op -> ("kv." ^ op ^ ".wall_ns", "ns")) [ "get"; "put"; "scan" ];
      [ ("index.depth", "count"); ("kv.scan.keys_per_call", "count") ];
      [
        ("engine.commit_sim_p50_ns", "sim-ns");
        ("engine.commit_sim_p99_ns", "sim-ns");
        ("engine.intents_per_tx", "count");
        ("engine.ranges_coalesced_per_tx", "count");
        ("engine.bytes_saved_per_op", "B");
      ];
      [
        ("locks.dependent_wait_ns_per_op", "sim-ns");
        ("locks.contention_wait_ns_per_op", "sim-ns");
        ("locks.wait_events_per_kop", "count");
      ];
      [ ("intent_log.free_slots_min", "count"); ("intent_log.full_ops", "count") ];
      [
        ("applier.tasks_per_op", "count");
        ("applier.batched_frac", "ratio");
        ("applier.busy_frac", "ratio");
        ("applier.lag_p99_ns", "sim-ns");
        ("applier.queue_max", "count");
      ];
      [
        ("backup.miss_rate", "ratio");
        ("backup.misses_per_op", "count");
        ("backup.evictions_per_op", "count");
        ("backup.resident", "count");
        ("backup.migrations", "count");
      ];
      [
        ("nvm.fences_per_op", "count");
        ("nvm.lines_flushed_per_op", "count");
        ("nvm.bytes_stored_per_op", "B");
        ("nvm.bytes_copied_per_op", "B");
        ("nvm.bytes_loaded_per_op", "B");
        ("nvm.main_lines_flushed_per_op", "count");
        ("nvm.flush_sim_ns_per_op", "sim-ns");
        ("nvm.fence_sim_ns_per_op", "sim-ns");
      ];
      [ ("heap.live_objects", "count"); ("heap.live_bytes", "B"); ("heap.segments", "count") ];
      class_percentiles "fs" [ "create"; "write"; "read"; "unlink" ];
      [ ("fs.blocks_allocated", "count") ];
      class_percentiles "cluster" [ "single"; "cross"; "read" ];
      [
        ("cluster.events_per_op", "count");
        ("cluster.backlog_ns", "sim-ns");
        ("cluster.redrives", "count");
        ("cluster.re_prepares", "count");
      ];
      [
        ("wall_ops_per_s", "ops/s");
        ("recovery.sim_ns", "sim-ns");
        ("recovery.wall_s", "s");
        ("recovery.crash_wall_s", "s");
        ("setup.create_s", "s");
        ("setup.load_s", "s");
        ("oracle.wall_s", "s");
        ("workload.gen_s", "s");
      ];
      [
        ("gc.minor_collections_per_kop", "count");
        ("gc.major_collections", "count");
        ("gc.promoted_words_per_op", "words");
      ];
      [
        ("trace.wall_overhead", "ratio");
        ("trace.events", "count");
        ("trace.dropped", "count");
        ("layer.unattributed_sim_ns_per_op", "sim-ns");
      ];
    ]

(* [pick defs values] lists every metric of [defs] in order, taking its
   value from [values] and 0 where the workload lacks it. *)
let pick defs values =
  List.map
    (fun (name, unit) ->
      { name; unit; value = Option.value (List.assoc_opt name values) ~default:0.0 })
    defs

(* Full precision, as JSON: integers without a fraction, the rest with
   every significant digit. *)
let num v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

type run = {
  workload : string;
  seed : int;
  scale : string;
  records : int;
  ops : int;
  seconds : float;
  traced : bool;
  attempted : int;
  failed : int;
  errors : string list;  (* end-of-run oracle failures *)
  e2e : metric list;
  layers : metric list;  (* empty unless traced *)
  wall_ops_per_s : float;
  wall_s : float;  (* the whole invocation, set-up included *)
}

let correct r = r.failed = 0 && r.errors = []

(* Failed or mismatched operations per attempted one; 1.0 when an
   end-of-run oracle fails. *)
let op_error_rate r =
  if r.errors <> [] then 1.0 else Pct.per r.failed r.attempted

let text_lines r =
  let line m = Printf.sprintf "%s %s %s %s" r.workload m.name (num m.value) m.unit in
  let wall = { name = "wall_ops_per_s"; unit = "ops/s"; value = r.wall_ops_per_s } in
  List.map line r.e2e
  @ List.map line (if r.layers = [] then [ wall ] else r.layers)
  @ [ line { name = "op_error_rate"; unit = "ratio"; value = op_error_rate r } ]

let str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let meta_fields r =
  [
    ("workload", str r.workload);
    ("seed", string_of_int r.seed);
    ("scale", str r.scale);
    ("baseline_eligible", string_of_bool (r.scale = "full"));
    ("records", string_of_int r.records);
    ("ops", string_of_int r.ops);
    ("seconds", num r.seconds);
    ("traced", string_of_bool r.traced);
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", str Sys.ocaml_version);
    ("run_wall_s", num r.wall_s);
  ]

let obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields) ^ "}"

let metrics_obj ms =
  obj (List.map (fun m -> (m.name, obj [ ("value", num m.value); ("unit", str m.unit) ])) ms)

let meta_line r = "# " ^ obj (meta_fields r)

(* The one-line result over one or more runs. A single workload keeps the
   metric names as they are; several prefix them with the workload. *)
let result_line runs =
  let metrics =
    match runs with
    | [ r ] -> if r.traced then r.layers else r.e2e
    | _ ->
        List.concat_map
          (fun r ->
            List.map
              (fun m -> { m with name = r.workload ^ "." ^ m.name })
              (if r.traced then r.layers else r.e2e))
          runs
  in
  obj
    [
      ("correct", string_of_bool (List.for_all correct runs));
      ("attempted", string_of_int (List.fold_left (fun a r -> a + r.attempted) 0 runs));
      ("failed", string_of_int (List.fold_left (fun a r -> a + r.failed) 0 runs));
      ("metrics", metrics_obj metrics);
    ]

(* The full record of one run, for [--out] and the committed baseline. *)
let record r =
  obj
    (meta_fields r
    @ [
        ("correct", string_of_bool (correct r));
        ("attempted", string_of_int r.attempted);
        ("failed", string_of_int r.failed);
        ("op_error_rate", num (op_error_rate r));
        ("wall_ops_per_s", num r.wall_ops_per_s);
        ("errors", "[" ^ String.concat ", " (List.map str r.errors) ^ "]");
        ("end_to_end", metrics_obj r.e2e);
        ("per_layer", metrics_obj r.layers);
      ])
