(* What every workload gives the runner, and the pieces they share. *)

module Engine = Kamino_core.Engine
module Backup = Kamino_core.Backup
module Heap = Kamino_heap.Heap
module Region = Kamino_nvm.Region

type scale = Full | Smoke

let scale_name = function Full -> "full" | Smoke -> "smoke"

(* Operation failures and end-of-run oracle verdicts of one run. *)
type checks = { mutable failed : int; mutable errors : string list }

let checks () = { failed = 0; errors = [] }

let fail c = c.failed <- c.failed + 1

let error c msg = c.errors <- msg :: c.errors

let oracle c what = function Ok () -> () | Error e -> error c (what ^ ": " ^ e)

(* The fixed-op window's results. *)
type model = {
  ops : int;
  sim_ns : int;  (* simulated elapsed time of the window *)
  lat : int array;  (* simulated latency of every operation *)
  is_write : int -> bool;  (* whether operation [i] writes *)
  nvm_write_bytes : int;  (* bytes stored + bytes copied, every region *)
  user_bytes : int;  (* payload bytes the operations wrote *)
  storage_bytes : int;
  live_user_bytes : int;
  words : float;  (* minor words allocated in the window *)
  wall_s : float;
  minor_gcs : int;
  major_gcs : int;
  promoted_words : float;
}

type recovery = {
  sim_ns : int;  (* simulated time of [Engine.recover] *)
  crash_wall_s : float;
  recover_wall_s : float;
  oracle_wall_s : float;
}

type instance = {
  sim_now : unit -> int;
  create_s : float;  (* set-up split: building the engine ... *)
  load_s : float;  (* ... and preloading it *)
  window : unit -> model;  (* the fixed-op, modelled window *)
  after_window : unit -> recovery option;
      (* the oracles, around a crash mid-transaction and its recovery
         where the workload has one engine to crash *)
  chunk : unit -> int;  (* a few more operations for the wall window; returns how many *)
  final_check : unit -> unit;
  layers : unit -> (string * float) list;  (* after [window] *)
}

type t = {
  name : string;
  classes : string array;  (* operation classes, the probe's span names *)
  records : int;
  ops : int;
  setup : Probe.t option -> instance;  (* traced when given a probe *)
}

(* [phase probe name ~now f] runs [f], timed, and as a probe span when
   traced. *)
let phase probe name ~now f =
  Wall.timed (fun () ->
      match probe with None -> f () | Some p -> Probe.phase p name ~now f)

(* 256 version-tagged payloads of [len] bytes. Writes store pool entries
   and mirrors remember the version, so checking a read allocates
   nothing. *)
let pool ~len =
  Array.init 256 (fun v ->
      let tag = Printf.sprintf "v%03d:" v in
      tag ^ String.make (len - String.length tag) (Char.chr (97 + (v mod 26))))

(* Whether [s] is one of the pool's payloads. *)
let in_pool pool s =
  String.length s >= 4
  &&
  match int_of_string_opt (String.sub s 1 3) with
  | Some v -> v >= 0 && v < 256 && String.equal s pool.(v)
  | None -> false

(* Allocation, wall time and GC activity of [f]. *)
let metered f =
  let g0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let t0 = Wall.now () in
  let v = f () in
  let wall = Wall.since t0 in
  let words = Gc.minor_words () -. w0 in
  let g1 = Gc.quick_stat () in
  ( v,
    words,
    wall,
    ( g1.Gc.minor_collections - g0.Gc.minor_collections,
      g1.Gc.major_collections - g0.Gc.major_collections,
      g1.Gc.promoted_words -. g0.Gc.promoted_words ) )

(* Counters summed over a set of engines (one for the KV and fs
   workloads, every replica for the cluster). *)
type totals = {
  stored : int;
  copied : int;
  loaded : int;
  flushed : int;
  fences : int;
  main_flushed : int;
  committed : int;
  coalesced : int;
  saved : int;
  tasks : int;
  batched : int;
  hits : int;
  misses : int;
  evictions : int;
}

let totals engines =
  List.fold_left
    (fun t e ->
      let c = Engine.main_counters e and m = Engine.metrics e in
      let main = Region.counters (Engine.main_region e) in
      {
        stored = t.stored + c.Region.bytes_stored;
        copied = t.copied + c.Region.bytes_copied;
        loaded = t.loaded + c.Region.bytes_loaded;
        flushed = t.flushed + c.Region.lines_flushed;
        fences = t.fences + c.Region.fences;
        main_flushed = t.main_flushed + main.Region.lines_flushed;
        committed = t.committed + m.Engine.committed;
        coalesced = t.coalesced + m.Engine.ranges_coalesced;
        saved = t.saved + m.Engine.bytes_saved;
        tasks = t.tasks + m.Engine.applier_tasks;
        batched = t.batched + m.Engine.tasks_batched;
        hits = t.hits + m.Engine.backup_hits;
        misses = t.misses + m.Engine.backup_misses;
        evictions = t.evictions + m.Engine.backup_evictions;
      })
    {
      stored = 0;
      copied = 0;
      loaded = 0;
      flushed = 0;
      fences = 0;
      main_flushed = 0;
      committed = 0;
      coalesced = 0;
      saved = 0;
      tasks = 0;
      batched = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
    }
    engines

let nvm_writes t = t.stored + t.copied

let storage_bytes engines = List.fold_left (fun a e -> a + Engine.storage_bytes e) 0 engines

(* Engine, applier, backup, NVM and heap metrics of a window of [ops]
   operations, from counter totals [a] before and [b] after. *)
let engine_layers ~ops engines a b =
  let d f = f b - f a in
  let sum f = List.fold_left (fun acc e -> acc + f e) 0 engines in
  let backup f = sum (fun e -> match Engine.backup e with Some bk -> f bk | None -> 0) in
  let heap f = sum (fun e -> f (Heap.stats (Engine.heap e))) in
  [
    ("engine.ranges_coalesced_per_tx", Pct.per (d (fun t -> t.coalesced)) (d (fun t -> t.committed)));
    ("engine.bytes_saved_per_op", Pct.per (d (fun t -> t.saved)) ops);
    ("applier.tasks_per_op", Pct.per (d (fun t -> t.tasks)) ops);
    ("applier.batched_frac", Pct.per (d (fun t -> t.batched)) (d (fun t -> t.tasks)));
    ("backup.miss_rate", Pct.per (d (fun t -> t.misses)) (d (fun t -> t.hits + t.misses)));
    ("backup.misses_per_op", Pct.per (d (fun t -> t.misses)) ops);
    ("backup.evictions_per_op", Pct.per (d (fun t -> t.evictions)) ops);
    ("backup.resident", float_of_int (backup Backup.resident));
    ("backup.migrations", float_of_int (backup Backup.migrations));
    ("nvm.fences_per_op", Pct.per (d (fun t -> t.fences)) ops);
    ("nvm.lines_flushed_per_op", Pct.per (d (fun t -> t.flushed)) ops);
    ("nvm.bytes_stored_per_op", Pct.per (d (fun t -> t.stored)) ops);
    ("nvm.bytes_copied_per_op", Pct.per (d (fun t -> t.copied)) ops);
    ("nvm.bytes_loaded_per_op", Pct.per (d (fun t -> t.loaded)) ops);
    ("nvm.main_lines_flushed_per_op", Pct.per (d (fun t -> t.main_flushed)) ops);
    ("heap.live_objects", float_of_int (heap (fun s -> s.Heap.live_objects)));
    ("heap.live_bytes", float_of_int (heap (fun s -> s.Heap.live_bytes)));
    ("heap.segments", float_of_int (heap (fun s -> s.Heap.segments_live)));
  ]

(* p50 and p99 of the latencies of each class of operation; [names] are
   the probe's class names, [cls_of i] the class of operation [i]. *)
let class_percentiles names lat ~cls_of =
  List.concat
    (List.mapi
       (fun cls name ->
         let s = Pct.sorted_where lat (fun i -> cls_of i = cls) in
         [
           (name ^ ".sim_p50_ns", float_of_int (Pct.nearest_rank s 500));
           (name ^ ".sim_p99_ns", float_of_int (Pct.nearest_rank s 990));
         ])
       (Array.to_list names))

(* [clients] virtual clients on one OS thread: the one furthest behind in
   simulated time runs next, the conservative order [Driver.run] uses. *)
let next_client clocks =
  let c = ref 0 in
  for j = 1 to Array.length clocks - 1 do
    if Kamino_sim.Clock.now clocks.(j) < Kamino_sim.Clock.now clocks.(!c) then c := j
  done;
  !c
