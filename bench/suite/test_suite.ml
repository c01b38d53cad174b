(* The benchmark checks itself at smoke scale: modelled metrics repeat bit
   for bit, tracing does not move them, the oracles catch a planted lie,
   percentiles are nearest-rank, and the committed baseline is full-scale. *)

open Suite_lib

let opts ?(trace = false) ?(plant = false) () =
  {
    Runner.scale = Workload.Smoke;
    seed = 3;
    seconds = 0.05;
    trace;
    trace_dir = "suite-test-trace";
    plant;
  }

let value (r : Report.run) name =
  (List.find (fun (m : Report.metric) -> m.name = name) (r.e2e @ r.layers)).value

let modelled r = List.map (fun n -> (n, value r n)) Report.modelled

let ok (r : Report.run) =
  Alcotest.(check (list string)) (r.workload ^ ": oracle failures") [] r.errors;
  Alcotest.(check int) (r.workload ^ ": failed operations") 0 r.failed

let workload_case name =
  Alcotest.test_case name `Quick (fun () ->
      let a = Runner.run (opts ()) name in
      let b = Runner.run (opts ()) name in
      let t = Runner.run (opts ~trace:true ()) name in
      List.iter ok [ a; b; t ];
      let pairs = Alcotest.(list (pair string (float 0.0))) in
      Alcotest.check pairs "two runs, same modelled metrics" (modelled a) (modelled b);
      Alcotest.check pairs "traced run, same modelled metrics" (modelled a) (modelled t);
      Alcotest.(check (float 0.0)) "no trace event dropped" 0.0 (value t "trace.dropped");
      Alcotest.(check int) "every per-layer metric reported" (List.length Report.per_layer)
        (List.length t.layers);
      let planted = Runner.run (opts ~plant:true ()) name in
      Alcotest.(check bool) "a planted mirror lie is caught" true
        (Report.op_error_rate planted > 0.0))

let percentile_case =
  Alcotest.test_case "nearest-rank percentiles" `Quick (fun () ->
      let s = [| 15; 20; 35; 40; 50 |] in
      List.iter
        (fun (permille, want) ->
          Alcotest.(check int) (Printf.sprintf "p%d/1000" permille) want (Pct.nearest_rank s permille))
        [ (50, 15); (300, 20); (400, 20); (500, 35); (1000, 50) ];
      let thousand = Array.init 1000 (fun i -> i + 1) in
      Alcotest.(check int) "p99.9 of 1..1000" 999 (Pct.nearest_rank thousand 999);
      Alcotest.(check int) "p99 of 1..1000" 990 (Pct.nearest_rank thousand 990))

(* A smoke-scale record must never become the committed baseline. *)
let baseline_case =
  Alcotest.test_case "baseline is full-scale" `Quick (fun () ->
      let ic = open_in "baseline.json" in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let contains sub =
        let n = String.length sub in
        let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "has full-scale runs" true (contains {|"scale": "full"|});
      Alcotest.(check bool) "has no smoke-scale run" false (contains {|"scale": "smoke"|}))

let () =
  Alcotest.run "bench-suite"
    [
      ("workloads", List.map workload_case Runner.workloads);
      ("helpers", [ percentile_case; baseline_case ]);
    ]
