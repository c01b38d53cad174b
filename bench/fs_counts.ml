(* Per-operation count vectors of the fs-smallfile cycle.

   The suite's fs-smallfile workload (Kamino-simple, 512 B blocks, 64
   directories of 1024 preloaded files, then seeded create / write / read
   / unlink cycles of a 100-byte file) rebuilt with the same seeds, so its
   total simulated time equals the suite's window. Each operation's
   counter deltas — every region of the stack, and the lock table's
   acquisitions — are summed per operation class and printed per
   operation beside its simulated ns: a perf change reads as which count
   moved, on which operation.

   Usage: main.exe fs-counts  (seed 1, 25,000 cycles, ~2 s) *)

module Engine = Kamino_core.Engine
module Locks = Kamino_core.Locks
module Region = Kamino_nvm.Region
module Rng = Kamino_sim.Rng
module Fs = Kamino_fs.Fs

let dirs = 64
let names = 64
let preload = 1024
let cycles = 25_000
let payload_len = 100

let config =
  {
    Engine.default_config with
    Engine.heap_bytes = 32 * 1024 * 1024;
    log_slots = 256;
    max_tx_entries = 8192;
  }

let pool =
  Array.init 256 (fun v ->
      let tag = Printf.sprintf "v%03d:" v in
      tag ^ String.make (payload_len - String.length tag) (Char.chr (97 + (v mod 26))))

(* The columns: a name and a reading of one delta. *)
let columns =
  let open Region in
  [
    ("allocs", fun c -> c.allocs);
    ("frees", fun c -> c.frees);
    ("fences", fun c -> c.fences);
    ("lines_flushed", fun c -> c.lines_flushed);
    ("stores", fun c -> c.stores);
    ("loads", fun c -> c.loads);
    ("copies", fun c -> c.copies);
    ("bytes_copied", fun c -> c.bytes_copied);
    ("index_ops", fun c -> c.index_ops);
    ("tx_begins", fun c -> c.tx_begins);
  ]

let run ?(seed = 1) () =
  let e = Engine.create ~config ~kind:Engine.Kamino_simple ~seed:90210 () in
  let fs = Fs.format ~block_size:512 e in
  let root = Fs.root_ino fs in
  let dir_inos = Array.init dirs (fun i -> Fs.mkdir fs ~dir:root (Printf.sprintf "d%02d" i)) in
  for j = 0 to preload - 1 do
    let ino = Fs.create fs ~dir:dir_inos.(j mod dirs) (Printf.sprintf "p%d" j) in
    Fs.write fs ~ino ~off:0 pool.(j land 255)
  done;
  Engine.drain_backup e;
  let rng = Rng.create seed in
  let stream =
    Array.init cycles (fun _ ->
        let d = Rng.int rng dirs in
        let n = Rng.int rng names in
        let v = Rng.int rng 256 in
        (d, n, v))
  in
  (* Per class: the counters summed before and after each operation (a
     delta is after less before), lock acquisitions and sim-ns. *)
  let before = Array.init 4 (fun _ -> Region.zero_counters ()) in
  let after = Array.init 4 (fun _ -> Region.zero_counters ()) in
  let locks = Array.make 4 0 and ns = Array.make 4 0 in
  let ino = ref (-1) in
  let start = Engine.now e in
  Array.iter
    (fun (d, n, v) ->
      let dir = dir_inos.(d) and name = Printf.sprintf "n%d" n in
      for j = 0 to 3 do
        Region.add_counters before.(j) (Engine.main_counters e);
        let l0 = Locks.acquisitions (Engine.locks e) and t0 = Engine.now e in
        (match j with
        | 0 -> ino := Fs.create fs ~dir name
        | 1 -> Fs.write fs ~ino:!ino ~off:0 pool.(v)
        | 2 ->
            if Fs.read fs ~ino:!ino ~off:0 ~len:payload_len <> pool.(v) then
              failwith "fs-counts: read diverges"
        | _ -> Fs.unlink fs ~dir name);
        Region.add_counters after.(j) (Engine.main_counters e);
        locks.(j) <- locks.(j) + Locks.acquisitions (Engine.locks e) - l0;
        ns.(j) <- ns.(j) + Engine.now e - t0
      done)
    stream;
  let sim_ns = Engine.now e - start in
  Printf.printf "\n== fs-counts: fs-smallfile cycle, seed %d, %d cycles, per operation ==\n" seed
    cycles;
  Printf.printf "%-8s %9s" "op" "sim_ns";
  List.iter (fun (name, _) -> Printf.printf " %13s" name) columns;
  Printf.printf " %9s\n" "locks";
  let per x = float_of_int x /. float_of_int cycles in
  let fences = ref 0 in
  Array.iteri
    (fun j name ->
      Printf.printf "%-8s %9.1f" name (per ns.(j));
      List.iter
        (fun (_, get) -> Printf.printf " %13.3f" (per (get after.(j) - get before.(j))))
        columns;
      Printf.printf " %9.3f\n" (per locks.(j));
      fences := !fences + after.(j).Region.fences - before.(j).Region.fences)
    [| "create"; "write"; "read"; "unlink" |];
  Printf.printf "sim_ops_per_s %.1f  fences_per_op %.4f\n"
    (float_of_int (4 * cycles) *. 1e9 /. float_of_int sim_ns)
    (float_of_int !fences /. float_of_int (4 * cycles))
