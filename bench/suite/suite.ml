(* The benchmark suite's command line.

   suite.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
             [--trace-dir DIR] [--scale full|smoke] [--out FILE]

   Runs one workload, or all five without --workload. Prints one line per
   metric ("workload metric value unit") and, last, one JSON object with
   the keys correct, attempted, failed and metrics: the end-to-end metrics
   untraced, the per-layer ones with --trace 1. Exits 1 if any operation
   or oracle failed, 2 on a usage error. *)

open Suite_lib

let usage () =
  prerr_endline
    "usage: suite.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--trace-dir \
     DIR] [--scale full|smoke] [--out FILE]";
  prerr_endline ("workloads: " ^ String.concat ", " Runner.workloads);
  exit 2

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 5.0 and trace = ref false in
  let trace_dir = ref ".bench_suite" and scale = ref Workload.Full and out = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest when List.mem v Runner.workloads ->
        workload := Some v;
        parse rest
    | "--seed" :: v :: rest when int_of_string_opt v <> None ->
        seed := int_of_string v;
        parse rest
    | "--seconds" :: v :: rest when Option.fold ~none:false ~some:(fun s -> s > 0.0) (float_of_string_opt v) ->
        seconds := float_of_string v;
        parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        trace := v = "1";
        parse rest
    | "--trace-dir" :: v :: rest ->
        trace_dir := v;
        parse rest
    | "--scale" :: ("full" | "smoke" as v) :: rest ->
        scale := if v = "full" then Workload.Full else Workload.Smoke;
        parse rest
    | "--out" :: v :: rest ->
        out := Some v;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let opts =
    {
      Runner.scale = !scale;
      seed = !seed;
      seconds = !seconds;
      trace = !trace;
      trace_dir = !trace_dir;
      plant = false;
    }
  in
  let names = match !workload with Some w -> [ w ] | None -> Runner.workloads in
  let runs =
    List.map
      (fun name ->
        Printf.eprintf "suite: %s (seed %d, %s scale)\n%!" name opts.seed
          (Workload.scale_name opts.scale);
        let r = Runner.run opts name in
        print_endline (Report.meta_line r);
        List.iter print_endline (Report.text_lines r);
        List.iter (Printf.eprintf "suite: %s: oracle failed: %s\n%!" name) r.errors;
        r)
      names
  in
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc
            ("{\"runs\": [\n" ^ String.concat ",\n" (List.map Report.record runs) ^ "\n]}\n")))
    !out;
  print_endline (Report.result_line runs);
  if not (List.for_all Report.correct runs) then exit 1
