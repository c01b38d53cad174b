module Sim = Kamino_sim.Engine
module Rng = Kamino_sim.Rng
module Engine = Kamino_core.Engine
module Kv = Kamino_kv.Kv
module Op = Kamino_chain.Op
module Async = Kamino_chain.Async_chain
module Obs = Kamino_obs.Obs

type fault =
  | Reboot of { node : int; at_event : int; downtime_ns : int }
  | Fail_stop of { node : int; at_event : int }
  | Stale_probe of { node : int; at_event : int }
  | Hop_jitter of { at_event : int; amplitude_ns : int }

type outcome = {
  seed : int;
  mode : Async.mode;
  ops : int;
  schedule : fault list;
  verdict : (unit, string) result;
  history : string;
  events : int;
  submitted : int;
  acked : int;
  reads : int;
  stale_drops : int;
  survivors : int list;
}

let mode_name = function
  | Async.Traditional -> "traditional"
  | Async.Kamino_chain _ -> "kamino"

let mode_of_string s =
  match String.lowercase_ascii s with
  | "traditional" -> Some Async.Traditional
  | "kamino" | "kamino-chain" -> Some (Async.Kamino_chain { alpha = None })
  | _ -> None

(* --- schedule serialization ------------------------------------------------ *)

let fault_at_event = function
  | Reboot { at_event; _ }
  | Fail_stop { at_event; _ }
  | Stale_probe { at_event; _ }
  | Hop_jitter { at_event; _ } ->
      at_event

let fault_to_string = function
  | Reboot { node; at_event; downtime_ns } ->
      Printf.sprintf "reboot node=%d at-event=%d downtime-ns=%d" node at_event downtime_ns
  | Fail_stop { node; at_event } -> Printf.sprintf "fail-stop node=%d at-event=%d" node at_event
  | Stale_probe { node; at_event } ->
      Printf.sprintf "stale-probe node=%d at-event=%d" node at_event
  | Hop_jitter { at_event; amplitude_ns } ->
      Printf.sprintf "hop-jitter at-event=%d amplitude-ns=%d" at_event amplitude_ns

let schedule_to_string schedule =
  String.concat "" (List.map (fun f -> fault_to_string f ^ "\n") schedule)

let schedule_of_string s =
  let parse_line ln line =
    let fields = String.split_on_char ' ' (String.trim line) in
    let kind = List.hd fields in
    let kvs =
      List.filter_map
        (fun tok ->
          match String.index_opt tok '=' with
          | Some i ->
              Some
                ( String.sub tok 0 i,
                  String.sub tok (i + 1) (String.length tok - i - 1) )
          | None -> None)
        (List.tl fields)
    in
    let field name =
      match List.assoc_opt name kvs with
      | Some v -> (
          match int_of_string_opt v with
          | Some n -> n
          | None -> failwith (Printf.sprintf "line %d: bad integer for %s" ln name))
      | None -> failwith (Printf.sprintf "line %d: missing field %s" ln name)
    in
    match kind with
    | "reboot" ->
        Reboot
          { node = field "node"; at_event = field "at-event"; downtime_ns = field "downtime-ns" }
    | "fail-stop" -> Fail_stop { node = field "node"; at_event = field "at-event" }
    | "stale-probe" -> Stale_probe { node = field "node"; at_event = field "at-event" }
    | "hop-jitter" ->
        Hop_jitter { at_event = field "at-event"; amplitude_ns = field "amplitude-ns" }
    | k -> failwith (Printf.sprintf "line %d: unknown fault kind %S" ln k)
  in
  let lines =
    String.split_on_char '\n' s
    |> List.mapi (fun i l -> (i + 1, l))
    |> List.filter (fun (_, l) ->
           let l = String.trim l in
           l <> "" && l.[0] <> '#')
  in
  match List.map (fun (i, l) -> parse_line i l) lines with
  | schedule -> Ok schedule
  | exception Failure msg -> Error msg

(* --- workload -------------------------------------------------------------- *)

(* Small key space and short payloads: the adversary is the fault schedule,
   not data volume. Submission times overlap the 5 us hop latency so faults
   land mid-propagation. *)
let key_space = 12

type cmd = Cwrite of Op.t | Cread of int

let gen_workload ~seed ~ops =
  let rng = Rng.create ((seed * 31) + 7) in
  let at = ref 0 in
  List.init ops (fun i ->
      at := !at + 800 + Rng.int rng 3_500;
      let key = Rng.int rng key_space in
      let cmd =
        match Rng.int rng 10 with
        | 0 | 1 | 2 -> Cwrite (Op.Put (key, Printf.sprintf "s%dw%d" seed i))
        | 3 | 4 -> Cwrite (Op.Append (key, Printf.sprintf "+%d" i))
        | 5 -> Cwrite (Op.Delete key)
        | _ -> Cread key
      in
      (!at, cmd))

let gen_schedule ~seed ~faults ~nodes ~events =
  let rng = Rng.create ((seed * 131) + 3) in
  List.init faults (fun _ ->
      let at_event = 1 + Rng.int rng (max 1 events) in
      match Rng.int rng 100 with
      | k when k < 45 ->
          Reboot { node = Rng.int rng nodes; at_event; downtime_ns = Rng.int rng 20_000 }
      | k when k < 65 -> Fail_stop { node = Rng.int rng nodes; at_event }
      | k when k < 85 -> Stale_probe { node = Rng.int rng nodes; at_event }
      | _ -> Hop_jitter { at_event; amplitude_ns = 500 + Rng.int rng 4_000 })
  |> List.stable_sort (fun a b -> compare (fault_at_event a) (fault_at_event b))

(* --- run record ------------------------------------------------------------ *)

type wrec = {
  w_index : int;
  w_op : Op.t;
  w_at : int;
  mutable w_seq : int;  (* -1 until the head assigns one *)
  mutable w_ack : int;  (* -1 until the tail acknowledgment completes *)
}

type rrec = {
  r_index : int;
  r_key : int;
  r_at : int;
  mutable r_fired : bool;
  mutable r_value : string option;
  mutable r_done : int;
}

let rec op_to_string = function
  | Op.Put (k, v) -> Printf.sprintf "Put(%d,%S)" k v
  | Op.Delete k -> Printf.sprintf "Delete(%d)" k
  | Op.Append (k, v) -> Printf.sprintf "Append(%d,%S)" k v
  | Op.Batch ops ->
      Printf.sprintf "Batch[%s]" (String.concat ";" (List.map op_to_string ops))

let rec apply_model model = function
  | Op.Put (k, v) -> Hashtbl.replace model k v
  | Op.Delete k -> Hashtbl.remove model k
  | Op.Append (k, suffix) ->
      let prev = Option.value (Hashtbl.find_opt model k) ~default:"" in
      Hashtbl.replace model k (prev ^ suffix)
  | Op.Batch ops -> List.iter (apply_model model) ops

let model_contents model =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [] |> List.sort compare

let kv_contents kv =
  let acc = ref [] in
  Kv.iter kv (fun k v -> acc := (k, v) :: !acc);
  List.sort compare !acc

(* --- oracles --------------------------------------------------------------- *)

(* Durable prefix: every member of the final view holds exactly the ops in
   the head's applied set; that set contains every acknowledged write and
   nothing that was never submitted; replaying it in sequence order through
   a sequential model reproduces each survivor's durable image; and the
   head's backup agrees with its heap. *)
let check_durable_prefix chain writes =
  let ( let* ) = Result.bind in
  let survivors = Async.members chain in
  let head = List.hd survivors in
  let applied = Async.applied_seqs chain head in
  let* () =
    List.fold_left
      (fun acc m ->
        let* () = acc in
        let theirs = Async.applied_seqs chain m in
        if theirs = applied then Ok ()
        else
          let missing = List.filter (fun s -> not (List.mem s theirs)) applied in
          let extra = List.filter (fun s -> not (List.mem s applied)) theirs in
          Error
            (Printf.sprintf
               "durable-prefix: replica %d applied a different op set than head %d \
                (missing [%s], extra [%s])"
               m head
               (String.concat ";" (List.map string_of_int missing))
               (String.concat ";" (List.map string_of_int extra))))
      (Ok ()) (List.tl survivors)
  in
  let by_seq = Hashtbl.create 64 in
  List.iter (fun w -> if w.w_seq >= 0 then Hashtbl.replace by_seq w.w_seq w) writes;
  let* () =
    List.fold_left
      (fun acc seq ->
        let* () = acc in
        if Hashtbl.mem by_seq seq then Ok ()
        else Error (Printf.sprintf "durable-prefix: phantom op seq %d was executed" seq))
      (Ok ()) applied
  in
  let applied_set = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace applied_set s ()) applied;
  let* () =
    List.fold_left
      (fun acc w ->
        let* () = acc in
        if w.w_ack >= 0 && not (Hashtbl.mem applied_set w.w_seq) then
          Error
            (Printf.sprintf
               "durable-prefix: acknowledged write w%d (seq %d) lost from survivors"
               w.w_index w.w_seq)
        else Ok ())
      (Ok ()) writes
  in
  let model = Hashtbl.create 64 in
  List.iter (fun seq -> apply_model model (Hashtbl.find by_seq seq).w_op) applied;
  let expected = model_contents model in
  let* () =
    List.fold_left
      (fun acc m ->
        let* () = acc in
        if kv_contents (Async.kv_at chain m) = expected then Ok ()
        else
          Error
            (Printf.sprintf
               "durable-prefix: replica %d's durable image diverges from the replay of \
                its applied set"
               m))
      (Ok ()) survivors
  in
  let* () = Async.replicas_consistent chain in
  let* () =
    Result.map_error
      (fun e -> Printf.sprintf "durable-prefix: head backup: %s" e)
      (Engine.verify_backup (Async.engine_at chain head))
  in
  Ok applied

(* Linearizability of completed operations against a sequential model:
   writes are linearized in head-sequence order; a read must have returned
   a state of its key no older than the last write to that key that
   completed before the read began, and containing no write invoked after
   the read returned. *)
let check_linearizable writes reads applied =
  let applied_set = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace applied_set s ()) applied;
  let by_seq = Hashtbl.create 64 in
  List.iter (fun w -> if w.w_seq >= 0 then Hashtbl.replace by_seq w.w_seq w) writes;
  (* Per-key value timelines over the applied writes, in sequence order. *)
  let model = Hashtbl.create 16 in
  let timelines = Hashtbl.create 16 in
  let push key state =
    let tl = Option.value (Hashtbl.find_opt timelines key) ~default:[] in
    Hashtbl.replace timelines key (state :: tl)
  in
  List.iter
    (fun seq ->
      let w = Hashtbl.find by_seq seq in
      apply_model model w.w_op;
      let key =
        match w.w_op with
        | Op.Put (k, _) | Op.Delete k | Op.Append (k, _) -> k
        (* The single-chain workload never generates batches. *)
        | Op.Batch _ -> assert false
      in
      push key (seq, w.w_at, Hashtbl.find_opt model key))
    applied;
  let check_read acc r =
    Result.bind acc (fun () ->
        if not r.r_fired then Ok ()
        else begin
          (* The newest write to this key acknowledged before the read began
             must be visible. *)
          let lo =
            List.fold_left
              (fun lo w ->
                match w.w_op with
                | (Op.Put (k, _) | Op.Delete k | Op.Append (k, _))
                  when k = r.r_key && w.w_ack >= 0 && w.w_ack <= r.r_at ->
                    max lo w.w_seq
                | _ -> lo)
              0 writes
          in
          let timeline =
            List.rev (Option.value (Hashtbl.find_opt timelines r.r_key) ~default:[])
          in
          let candidates =
            (if lo = 0 then [ None ] else [])
            @ List.filter_map
                (fun (seq, at, state) ->
                  if seq >= lo && at <= r.r_done then Some state else None)
                timeline
          in
          if List.exists (fun c -> c = r.r_value) candidates then Ok ()
          else
            Error
              (Printf.sprintf
                 "linearizability: read r%d of key %d returned %s, not a legal state \
                  in its window"
                 r.r_index r.r_key
                 (match r.r_value with Some v -> Printf.sprintf "%S" v | None -> "absent"))
        end)
  in
  List.fold_left check_read (Ok ()) reads

(* --- the runner ------------------------------------------------------------ *)

let chaos_engine_config =
  {
    Engine.default_config with
    Engine.heap_bytes = 1 lsl 18;
    log_slots = 64;
    data_log_bytes = 1 lsl 16;
  }

let make_chain ?(obs = Obs.null) ~mode ~seed () =
  Async.create ~engine_config:chaos_engine_config ~obs ~hop_ns:5000 ~rpc_ns:500
    ~promote_ns:40_000 ~queue_slots:256 ~mode ~f:2 ~value_size:64 ~node_size:512 ~seed ()

(* Apply one fault at an event boundary. Faults drawn against a dry run can
   be inapplicable by the time they fire (the node was removed, the chain
   is too short to shrink further); they become deterministic no-ops so a
   schedule replays identically. *)
let apply_fault chain ~seed ~obs log fault =
  let note verdict = Buffer.add_string log (fault_to_string fault ^ verdict ^ "\n") in
  let alive node =
    node < Async.length chain && List.mem node (Async.members chain)
  in
  (* Fault codes in the trace: 0 = reboot, 1 = fail-stop, 2 = stale-view
     probe, 3 = hop jitter (see {!Obs.k_fault}). Only applied faults leave
     an instant — a skipped fault never touched the system. *)
  let trace code node at_event =
    if Obs.enabled obs then
      Obs.emit obs ~kind:Obs.k_fault ~track:0
        ~ts:(Sim.now (Async.sim chain))
        ~dur:(-1) ~a:code ~b:node ~c:at_event
  in
  match fault with
  | Reboot { node; downtime_ns; at_event } ->
      if alive node then begin
        trace 0 node at_event;
        Async.reboot_now ~downtime_ns chain node;
        note " -> applied"
      end
      else note " -> skipped (not a member)"
  | Fail_stop { node; at_event } ->
      if alive node && List.length (Async.members chain) > 2 then begin
        trace 1 node at_event;
        Async.fail_stop_now chain node;
        note " -> applied"
      end
      else note " -> skipped (not a member, or chain too short)"
  | Stale_probe { node; at_event } ->
      if alive node then begin
        trace 2 node at_event;
        Async.inject_stale_probe_now chain node;
        note " -> applied"
      end
      else note " -> skipped (not a member)"
  | Hop_jitter { at_event; amplitude_ns } ->
      trace 3 (-1) at_event;
      Async.set_hop_jitter chain
        (Some (Rng.create ((seed * 1_000_003) + at_event), amplitude_ns));
      note " -> applied"

let run ?(recovery_fault = Async.No_fault) ?(obs = Obs.null) ~mode ~seed ~ops
    ~schedule () =
  let chain = make_chain ~obs ~mode ~seed () in
  Async.set_recovery_fault chain recovery_fault;
  let steps = gen_workload ~seed ~ops in
  let writes = ref [] and reads = ref [] in
  List.iteri
    (fun i (at, cmd) ->
      match cmd with
      | Cwrite op ->
          let w = { w_index = i; w_op = op; w_at = at; w_seq = -1; w_ack = -1 } in
          writes := w :: !writes;
          Async.submit chain ~at
            ~on_submit:(fun seq -> w.w_seq <- seq)
            op
            ~on_complete:(fun t -> w.w_ack <- t)
      | Cread key ->
          let r =
            { r_index = i; r_key = key; r_at = at; r_fired = false; r_value = None; r_done = -1 }
          in
          reads := r :: !reads;
          Async.read chain ~at key ~on_result:(fun v t ->
              r.r_fired <- true;
              r.r_value <- v;
              r.r_done <- t))
    steps;
  let writes = List.rev !writes and reads = List.rev !reads in
  (* Arm the schedule on the simulation's event boundaries. *)
  let sim = Async.sim chain in
  let fault_log = Buffer.create 256 in
  let pending = ref schedule in
  Sim.set_boundary_hook sim
    (Some
       (fun () ->
         let n = Sim.events_executed sim in
         let rec fire () =
           match !pending with
           | f :: rest when fault_at_event f <= n ->
               pending := rest;
               apply_fault chain ~seed ~obs fault_log f;
               fire ()
           | _ -> ()
         in
         fire ()));
  let events = Async.run chain in
  Sim.set_boundary_hook sim None;
  List.iter (fun f -> Buffer.add_string fault_log (fault_to_string f ^ " -> unfired\n")) !pending;
  (* Oracles. *)
  let verdict =
    match check_durable_prefix chain writes with
    | Error _ as e -> e
    | Ok applied -> check_linearizable writes reads applied
  in
  (* Render the history. *)
  let b = Buffer.create 4096 in
  Printf.bprintf b "# chaos mode=%s seed=%d ops=%d faults=%d\n" (mode_name mode) seed ops
    (List.length schedule);
  if schedule <> [] then begin
    Buffer.add_string b "# schedule:\n";
    List.iter (fun f -> Printf.bprintf b "#   %s\n" (fault_to_string f)) schedule
  end;
  List.iter
    (fun (at, cmd) ->
      match cmd with
      | Cwrite _ ->
          let w = List.find (fun w -> w.w_at = at) writes in
          Printf.bprintf b "w%d at=%d %s seq=%s ack=%s\n" w.w_index w.w_at
            (op_to_string w.w_op)
            (if w.w_seq >= 0 then string_of_int w.w_seq else "-")
            (if w.w_ack >= 0 then string_of_int w.w_ack else "-")
      | Cread _ ->
          let r = List.find (fun r -> r.r_at = at) reads in
          if r.r_fired then
            Printf.bprintf b "r%d at=%d key=%d -> %s done=%d\n" r.r_index r.r_at r.r_key
              (match r.r_value with Some v -> Printf.sprintf "%S" v | None -> "absent")
              r.r_done
          else Printf.bprintf b "r%d at=%d key=%d -> (no response)\n" r.r_index r.r_at r.r_key)
    steps;
  if Buffer.length fault_log > 0 then begin
    Buffer.add_string b "# faults:\n";
    String.split_on_char '\n' (Buffer.contents fault_log)
    |> List.iter (fun l -> if l <> "" then Printf.bprintf b "#   %s\n" l)
  end;
  let survivors = Async.members chain in
  Printf.bprintf b "# events=%d view=%d members=[%s] stale-drops=%d\n" events
    (Async.view_id chain)
    (String.concat ";" (List.map string_of_int survivors))
    (Async.stale_drops chain);
  Printf.bprintf b "verdict: %s\n"
    (match verdict with Ok () -> "PASS" | Error e -> "FAIL: " ^ e);
  {
    seed;
    mode;
    ops;
    schedule;
    verdict;
    history = Buffer.contents b;
    events;
    submitted = List.length (List.filter (fun w -> w.w_seq >= 0) writes);
    acked = List.length (List.filter (fun w -> w.w_ack >= 0) writes);
    reads = List.length reads;
    stale_drops = Async.stale_drops chain;
    survivors;
  }

let explore ?(recovery_fault = Async.No_fault) ?obs ?(ops = 40) ?(faults = 6)
    ~mode ~seed () =
  (* Dry run: measure the fault-free event count so the schedule spans the
     whole workload. Only the faulted run is traced. *)
  let dry = run ~mode ~seed ~ops ~schedule:[] () in
  let nodes = match mode with Async.Traditional -> 3 | Async.Kamino_chain _ -> 4 in
  let schedule = gen_schedule ~seed ~faults ~nodes ~events:dry.events in
  run ~recovery_fault ?obs ~mode ~seed ~ops ~schedule ()

let shrink ?(recovery_fault = Async.No_fault) ~mode ~seed ~ops schedule =
  let fails s =
    (run ~recovery_fault ~mode ~seed ~ops ~schedule:s ()).verdict <> Ok ()
  in
  if not (fails schedule) then schedule
  else begin
    let rec minimize s =
      let n = List.length s in
      let rec try_drop i =
        if i >= n then s
        else
          let s' = List.filteri (fun j _ -> j <> i) s in
          if fails s' then minimize s' else try_drop (i + 1)
      in
      try_drop 0
    in
    minimize schedule
  end
