(* Sinks are cold paths: they run after the measured region, so plain
   Buffer + Printf is fine here. *)

(* Simulated ns -> trace-event microseconds with 3 decimals. Integer
   splitting (not float division) keeps the rendering exact and
   deterministic. *)
let pp_us buf ns =
  Printf.bprintf buf "%d.%03d" (ns / 1000) (ns mod 1000)

let pp_arg buf ~first name v =
  if name <> "" then begin
    if not first then Buffer.add_char buf ',';
    Printf.bprintf buf "%S:%d" name v
  end

let perfetto buf obs =
  Buffer.add_string buf "{\"traceEvents\":[";
  let sep = ref "" in
  let next () =
    Buffer.add_string buf !sep;
    sep := ",\n"
  in
  (* Thread-name metadata first so viewers label tracks up front. *)
  List.iter
    (fun (tid, name) ->
      next ();
      Printf.bprintf buf
        "{\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":%S}}"
        tid name)
    (Obs.tracks obs);
  Obs.iter obs (fun ~kind ~track ~ts ~dur ~a ~b ~c ->
      next ();
      let name = Obs.kind_name kind in
      let cat = Obs.kind_cat kind in
      let an, bn, cn = Obs.arg_names kind in
      if kind = Obs.k_queue_depth then begin
        (* Counter track: value sampled over time. *)
        Printf.bprintf buf
          "{\"name\":%S,\"cat\":%S,\"ph\":\"C\",\"pid\":0,\"tid\":%d,\"ts\":"
          name cat track;
        pp_us buf ts;
        Printf.bprintf buf ",\"args\":{\"depth\":%d}}" a
      end
      else begin
        Printf.bprintf buf
          "{\"name\":%S,\"cat\":%S,\"ph\":%S,\"pid\":0,\"tid\":%d,\"ts\":" name
          cat
          (if dur >= 0 then "X" else "i")
          track;
        pp_us buf ts;
        if dur >= 0 then begin
          Buffer.add_string buf ",\"dur\":";
          pp_us buf dur
        end
        else Buffer.add_string buf ",\"s\":\"t\"";
        Buffer.add_string buf ",\"args\":{";
        pp_arg buf ~first:true an a;
        pp_arg buf ~first:(an = "") bn b;
        pp_arg buf ~first:(an = "" && bn = "") cn c;
        Buffer.add_string buf "}}"
      end);
  Printf.bprintf buf
    "],\n\"displayTimeUnit\":\"ns\",\n\"otherData\":{\"events\":%d,\"dropped\":%d,\"capacity\":%d}}\n"
    (Obs.length obs) (Obs.dropped obs) (Obs.capacity obs)

let perfetto_string obs =
  let buf = Buffer.create 65536 in
  perfetto buf obs;
  Buffer.contents buf

let write_perfetto_file path obs =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (perfetto_string obs))

let hist_rows buf hists =
  Printf.bprintf buf "  %-28s %10s %12s %10s %10s %10s %12s\n" "name" "count"
    "mean" "p50" "p95" "p99" "max";
  List.iter
    (fun (name, h) ->
      Printf.bprintf buf "  %-28s %10d %12.1f %10d %10d %10d %12d\n" name
        (Metrics.count h) (Metrics.mean h)
        (Metrics.percentile h 50.)
        (Metrics.percentile h 95.)
        (Metrics.percentile h 99.)
        (Metrics.max_value h))
    hists

let summary buf ?obs reg =
  Buffer.add_string buf "== counters ==\n";
  let any =
    Metrics.fold_counters reg ~init:false ~f:(fun _ name v ->
        Printf.bprintf buf "  %-32s %d\n" name v;
        true)
  in
  if not any then Buffer.add_string buf "  (none)\n";
  Buffer.add_string buf "== histograms (sim ns) ==\n";
  let hists = Metrics.fold_hists reg ~init:[] ~f:(fun acc name h -> (name, h) :: acc) in
  hist_rows buf (List.rev hists);
  if hists = [] then Buffer.add_string buf "  (none)\n";
  match obs with
  | None -> ()
  | Some o ->
      Printf.bprintf buf
        "== event ring ==\n  %d events held, %d dropped, capacity %d\n"
        (Obs.length o) (Obs.dropped o) (Obs.capacity o)

let summary_string ?obs reg =
  let buf = Buffer.create 4096 in
  summary buf ?obs reg;
  Buffer.contents buf
