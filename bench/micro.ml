(* Bechamel wall-clock microbenchmarks: real OCaml execution cost of one
   transactional update per engine kind. The simulated nanoseconds drive
   every figure; this suite additionally sanity-checks that the
   *implementation* cost ordering holds for actually executed instructions
   (the undo/CoW engines run real byte copies per transaction, the Kamino
   engines do not). *)

open Bechamel
module Engine = Kamino_core.Engine
module Backup = Kamino_core.Backup

let kinds =
  [
    ("no-logging", Engine.No_logging);
    ("undo-logging", Engine.Undo_logging);
    ("cow", Engine.Cow);
    ("kamino-simple", Engine.Kamino_simple);
    ("kamino-dyn-50", Engine.Kamino_dynamic { alpha = 0.5; policy = Backup.Lru_policy });
  ]

let config =
  {
    Engine.default_config with
    Engine.heap_bytes = 4 lsl 20;
    log_slots = 128;
    data_log_bytes = 4 lsl 20;
  }

let update_test (name, kind) =
  let e = Engine.create ~config ~kind ~seed:1 () in
  let ptr =
    Engine.with_tx e (fun tx ->
        let ptr = Engine.alloc tx 1024 in
        Engine.write_int64 tx ptr 0 0L;
        ptr)
  in
  Engine.drain_backup e;
  let i = ref 0 in
  Test.make ~name
    (Staged.stage (fun () ->
         incr i;
         Engine.with_tx e (fun tx ->
             Engine.add tx ptr;
             Engine.write_int64 tx ptr 0 (Int64.of_int !i));
         (* Keep the applier queue and intent log bounded. *)
         if !i mod 64 = 0 then Engine.drain_backup e))

let run () =
  Common.header "Microbenchmark: real wall-clock ns per 1 KB-object update transaction";
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) () in
  let rows =
    List.map
      (fun (name, kind) ->
        let test = update_test (name, kind) in
        let results =
          List.map
            (fun elt ->
              let raw = Benchmark.run cfg [ instance ] elt in
              Analyze.one ols instance raw)
            (Test.elements test)
        in
        let estimate =
          List.fold_left
            (fun acc r ->
              match Analyze.OLS.estimates r with Some (x :: _) -> acc +. x | _ -> acc)
            0.0 results
        in
        [ name; Printf.sprintf "%.0f" estimate ])
      kinds
  in
  Common.print_table ~cols:[ "engine"; "wall-clock ns/update" ] rows
