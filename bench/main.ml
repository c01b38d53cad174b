(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (DESIGN.md carries the per-experiment index, EXPERIMENTS.md
   the paper-vs-measured comparison).

   Usage: main.exe [--full] [experiment ...]
   Experiments: fig1 fig12 fig13 fig14 fig15 fig16 fig17 fig18 table1 dep
                worst micro granularity recovery availability ablations
                fs-counts.
                Default: all of them at scaled-down sizes. *)

let experiments p =
  [
    ("fig1", fun () -> Figures.fig1 p);
    ("fig12", fun () -> Figures.fig12 p);
    ("fig13", fun () -> Figures.fig13 p);
    ("fig14", fun () -> Figures.fig14_15 p);
    ("fig15", fun () -> Figures.fig14_15 p);
    ("fig16", fun () -> Figures.fig16 p);
    ("fig17", fun () -> Figures.fig17_18 p);
    ("fig18", fun () -> Figures.fig17_18 p);
    ("table1", fun () -> Figures.table1 p);
    ("dep", fun () -> Figures.dependent p);
    ("worst", fun () -> Figures.worst p);
    ("micro", fun () -> Micro.run ());
    ("granularity", fun () -> Figures.granularity p);
    ("recovery", fun () -> Figures.recovery p);
    ("availability", fun () -> Figures.availability p);
    ("fs-counts", fun () -> Fs_counts.run ());
    ( "ablations",
      fun () ->
        Figures.ablate_flush p;
        Figures.ablate_pending p;
        Figures.ablate_eviction p;
        Figures.ablate_slow_nvm p;
        Figures.ablate_persistent_caches p );
  ]

(* fig14/fig15 (and fig17/fig18) share one runner; avoid running it twice
   when both are requested. *)
let dedup names =
  let canon = function "fig15" -> "fig14" | "fig18" -> "fig17" | n -> n in
  List.rev
    (fst
       (List.fold_left
          (fun (acc, seen) n ->
            let c = canon n in
            if List.mem c seen then (acc, seen) else (n :: acc, c :: seen))
          ([], []) names))

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let full = List.mem "--full" args in
  let p = if full then Common.full else Common.scaled in
  let requested = List.filter (fun a -> a <> "--full") args in
  let exps = experiments p in
  let names = if requested = [] then List.map fst exps else requested in
  let names = dedup names in
  Printf.printf
    "Kamino-Tx benchmark harness (%s parameters: %d records x %d B values, %d ops/point)\n"
    (if full then "full" else "scaled")
    p.Common.record_count p.Common.value_size p.Common.ops;
  List.iter
    (fun name ->
      match List.assoc_opt name exps with
      | Some f ->
          let t0 = Common.Wall.now_s () in
          f ();
          Printf.printf "[%s done in %.1fs wall]\n%!" name
            (Common.Wall.elapsed_s ~since:t0)
      | None -> Printf.printf "unknown experiment %S (skipped)\n" name)
    names
