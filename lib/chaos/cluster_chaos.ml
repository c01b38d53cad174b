(* Chaos exploration over the replicated shard-cluster: a seeded workload,
   a fault schedule, oracles and greedy shrinking, pointed at a
   {!Kamino_cluster.Cluster}. One harness runs two campaigns that differ
   only in geometry and in their seeded draws:

   - the chain campaign: 1 shard of f=2, Traditional or Kamino-chain —
     quick reboots, fail-stops (with head promotion), stale-view probes
     and hop jitter against one chain (§5.2–§5.3);
   - the cluster campaign: 3 shards of f=1, Kamino-chain, with cross-shard
     multi_puts and two *targeted* fault kinds that arm on the 2PC
     protocol steps themselves:

     - [Prepare_head_fail]: when cross-transaction [cross] reports shard
       [shard] prepared, fail-stop that shard's head — the prepared
       transaction dies with it, a head promotion starts, and the
       coordinator must re-prepare through the new head before the marker
       can persist (the "head promotion between prepare and commit-marker
       persist" scenario);
     - [Marker_head_fail]: when the commit marker persists, fail-stop
       shard [shard]'s (prepared) head — the commit step must re-drive the
       decided transaction through whatever head the chain promotes.

   Event-indexed faults replay deterministically by event count; targeted
   faults replay deterministically because the protocol steps they arm on
   are themselves events of the deterministic simulation.

   Oracles, in order:
   - cluster quiescence (no undecided marker, no unacknowledged cross
     transaction survives the drained run);
   - cluster atomicity: every cross-shard multi_put is all-or-nothing
     across its participant chains under any crash schedule, and a
     marker-written (= decided) multi_put is applied everywhere;
   - per-chain durable prefix (survivor applied-set agreement, no
     phantoms, acked implies applied, sequential replay matches every
     survivor's durable image, head backup verified);
   - per-chain linearizability of completed reads. *)

module Sim = Kamino_sim.Engine
module Rng = Kamino_sim.Rng
module Engine = Kamino_core.Engine
module Kv = Kamino_kv.Kv
module Op = Kamino_chain.Op
module Async = Kamino_chain.Async_chain
module Cluster = Kamino_cluster.Cluster
module Obs = Kamino_obs.Obs
module Metrics = Kamino_obs.Metrics

type campaign = Chain_campaign of Async.mode | Cluster_campaign

type fault =
  | Reboot of { shard : int; node : int; at_event : int; downtime_ns : int }
  | Fail_stop of { shard : int; node : int; at_event : int }
  | Stale_probe of { shard : int; node : int; at_event : int }
  | Hop_jitter of { shard : int; at_event : int; amplitude_ns : int }
  | Prepare_head_fail of { cross : int; shard : int }
  | Marker_head_fail of { cross : int; shard : int }

type outcome = {
  seed : int;
  ops : int;
  schedule : fault list;
  verdict : (unit, string) result;
  history : string;
  events : int;
  submitted : int;
  acked : int;
  multis : int;
  multis_acked : int;
  crossed : int;
  redrives : int;
  reads : int;
  stale_drops : int;
  survivors : int list list;
  fingerprint : string Lazy.t;
  p50_ns : int;
  p95_ns : int;
  p99_ns : int;
}

let mode_name = function
  | Async.Traditional -> "traditional"
  | Async.Kamino_chain _ -> "kamino"

let mode_of_string s =
  match String.lowercase_ascii s with
  | "traditional" -> Some Async.Traditional
  | "kamino" | "kamino-chain" -> Some (Async.Kamino_chain { alpha = None })
  | _ -> None

(* --- campaign geometry ------------------------------------------------------ *)

let shards = function Chain_campaign _ -> 1 | Cluster_campaign -> 3

let f = function Chain_campaign _ -> 2 | Cluster_campaign -> 1

let mode = function
  | Chain_campaign m -> m
  | Cluster_campaign -> Async.Kamino_chain { alpha = None }

let nodes_per_chain c =
  match mode c with Async.Traditional -> f c + 1 | Async.Kamino_chain _ -> f c + 2

let default_ops = function Chain_campaign _ -> 40 | Cluster_campaign -> 30

(* --- schedule serialization ------------------------------------------------ *)

(* Targeted faults are armed before the run (they fire on protocol steps,
   not event counts); ordering them first keeps the schedule file stable. *)
let fault_at_event = function
  | Reboot { at_event; _ }
  | Fail_stop { at_event; _ }
  | Stale_probe { at_event; _ }
  | Hop_jitter { at_event; _ } ->
      at_event
  | Prepare_head_fail _ | Marker_head_fail _ -> 0

let fault_to_string = function
  | Reboot { shard; node; at_event; downtime_ns } ->
      Printf.sprintf "reboot shard=%d node=%d at-event=%d downtime-ns=%d" shard
        node at_event downtime_ns
  | Fail_stop { shard; node; at_event } ->
      Printf.sprintf "fail-stop shard=%d node=%d at-event=%d" shard node at_event
  | Stale_probe { shard; node; at_event } ->
      Printf.sprintf "stale-probe shard=%d node=%d at-event=%d" shard node
        at_event
  | Hop_jitter { shard; at_event; amplitude_ns } ->
      Printf.sprintf "hop-jitter shard=%d at-event=%d amplitude-ns=%d" shard
        at_event amplitude_ns
  | Prepare_head_fail { cross; shard } ->
      Printf.sprintf "prepare-head-fail cross=%d shard=%d" cross shard
  | Marker_head_fail { cross; shard } ->
      Printf.sprintf "marker-head-fail cross=%d shard=%d" cross shard

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
    let field ?default name =
      match (List.assoc_opt name kvs, default) with
      | Some v, _ -> (
          match int_of_string_opt v with
          | Some n when n >= 0 -> n
          | Some _ -> failwith (Printf.sprintf "line %d: negative value for %s" ln name)
          | None ->
              failwith (Printf.sprintf "line %d: bad integer for %s" ln name))
      | None, Some d -> d
      | None, None -> failwith (Printf.sprintf "line %d: missing field %s" ln name)
    in
    (* Event-indexed faults written for a single chain carry no shard. *)
    let shard () = field ~default:0 "shard" in
    match kind with
    | "reboot" ->
        Reboot
          {
            shard = shard ();
            node = field "node";
            at_event = field "at-event";
            downtime_ns = field "downtime-ns";
          }
    | "fail-stop" ->
        Fail_stop { shard = shard (); node = field "node"; at_event = field "at-event" }
    | "stale-probe" ->
        Stale_probe { shard = shard (); node = field "node"; at_event = field "at-event" }
    | "hop-jitter" ->
        Hop_jitter
          { shard = shard (); at_event = field "at-event"; amplitude_ns = field "amplitude-ns" }
    | "prepare-head-fail" ->
        Prepare_head_fail { cross = field "cross"; shard = field "shard" }
    | "marker-head-fail" ->
        Marker_head_fail { cross = field "cross"; shard = field "shard" }
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

(* --- workloads and schedules: one seeded draw per campaign ------------------ *)

type cmd =
  | Cwrite of Op.t
  | Cmulti of (int * string) list
  | Cread of int

(* Chain: small key space and short payloads — the adversary is the fault
   schedule, not data volume. Submission times overlap the 5 us hop
   latency so faults land mid-propagation. *)
let chain_workload ~seed ~ops =
  let key_space = 12 in
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

(* Cluster: a slightly wider key space so multi_puts usually span several
   shard-chains under the multiplicative router. *)
let cluster_workload ~seed ~ops =
  let key_space = 16 in
  let rng = Rng.create ((seed * 37) + 11) in
  let at = ref 0 in
  List.init ops (fun i ->
      at := !at + 900 + Rng.int rng 3_800;
      let key = Rng.int rng key_space in
      let cmd =
        match Rng.int rng 12 with
        | 0 | 1 | 2 -> Cwrite (Op.Put (key, Printf.sprintf "s%dw%d" seed i))
        | 3 | 4 -> Cwrite (Op.Append (key, Printf.sprintf "+%d" i))
        | 5 -> Cwrite (Op.Delete key)
        | 6 | 7 | 8 ->
            (* 2-4 distinct keys: under the router this is usually a
               genuine cross-chain transaction. *)
            let n = 2 + Rng.int rng 3 in
            let rec draw acc = function
              | 0 -> acc
              | n ->
                  let k = Rng.int rng key_space in
                  if List.mem_assoc k acc then draw acc n
                  else draw ((k, Printf.sprintf "s%dm%d.%d" seed i k) :: acc) (n - 1)
            in
            Cmulti (List.rev (draw [] n))
        | _ -> Cread key
      in
      (!at, cmd))

let gen_workload = function
  | Chain_campaign _ -> chain_workload
  | Cluster_campaign -> cluster_workload

let count_multis steps =
  List.length (List.filter (fun (_, c) -> match c with Cmulti _ -> true | _ -> false) steps)

let by_event schedule =
  List.stable_sort (fun a b -> compare (fault_at_event a) (fault_at_event b)) schedule

let chain_schedule ~seed ~faults ~nodes ~events =
  let rng = Rng.create ((seed * 131) + 3) in
  List.init faults (fun _ ->
      let at_event = 1 + Rng.int rng (max 1 events) in
      match Rng.int rng 100 with
      | k when k < 45 ->
          Reboot
            { shard = 0; node = Rng.int rng nodes; at_event; downtime_ns = Rng.int rng 20_000 }
      | k when k < 65 -> Fail_stop { shard = 0; node = Rng.int rng nodes; at_event }
      | k when k < 85 -> Stale_probe { shard = 0; node = Rng.int rng nodes; at_event }
      | _ -> Hop_jitter { shard = 0; at_event; amplitude_ns = 500 + Rng.int rng 4_000 })
  |> by_event

let cluster_schedule ~seed ~faults ~shards ~nodes ~events ~multis =
  let rng = Rng.create ((seed * 137) + 5) in
  List.init faults (fun _ ->
      let at_event = 1 + Rng.int rng (max 1 events) in
      let shard = Rng.int rng shards in
      let node = Rng.int rng nodes in
      match Rng.int rng 100 with
      | k when k < 32 ->
          Reboot { shard; node; at_event; downtime_ns = Rng.int rng 20_000 }
      | k when k < 48 -> Fail_stop { shard; node; at_event }
      | k when k < 60 -> Stale_probe { shard; node; at_event }
      | k when k < 72 ->
          Hop_jitter { shard; at_event; amplitude_ns = 500 + Rng.int rng 4_000 }
      | k when k < 87 && multis > 0 ->
          Prepare_head_fail { cross = Rng.int rng multis; shard }
      | k when k < 100 && multis > 0 ->
          Marker_head_fail { cross = Rng.int rng multis; shard }
      | _ -> Reboot { shard; node; at_event; downtime_ns = Rng.int rng 20_000 })
  |> by_event

let gen_schedule campaign ~seed ~faults ~events ~multis =
  let nodes = nodes_per_chain campaign in
  match campaign with
  | Chain_campaign _ -> chain_schedule ~seed ~faults ~nodes ~events
  | Cluster_campaign ->
      cluster_schedule ~seed ~faults ~shards:(shards campaign) ~nodes ~events ~multis

(* --- run records ------------------------------------------------------------ *)

(* One chain-level write view: a single-key write, or one participant
   slice of a multi_put, as the owning chain saw it. *)
type vrec = {
  v_name : string;  (* the client op: [w<i>] or [m<i>] *)
  v_seq : int;
  v_op : Op.t;
  v_at : int;
  v_ack : int;  (* -1 if the client completion never fired *)
}

type wrec = {
  w_index : int;
  w_op : Op.t;
  w_at : int;
  mutable w_shard : int;
  mutable w_seq : int;
  mutable w_ack : int;
}

type mrec = {
  m_index : int;
  m_bindings : (int * string) list;
  m_at : int;
  mutable m_parts : (int * int) list;  (* (shard, seq), ascending shard *)
  mutable m_marker : bool;  (* the commit point was reached *)
  mutable m_ack : int;
}

type rrec = {
  r_index : int;
  r_key : int;
  r_at : int;
  r_shard : int;
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

let rec op_keys = function
  | Op.Put (k, _) | Op.Delete k | Op.Append (k, _) -> [ k ]
  | Op.Batch ops -> List.concat_map op_keys ops

let model_contents model =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [] |> List.sort compare

let kv_contents kv =
  let acc = ref [] in
  Kv.iter kv (fun k v -> acc := (k, v) :: !acc);
  List.sort compare !acc

let ints_to_string seqs = String.concat ";" (List.map string_of_int seqs)

(* --- oracles --------------------------------------------------------------- *)

(* Durable prefix, per chain: every member of the final view holds exactly
   the ops in the head's applied set; that set contains every acknowledged
   write and nothing that was never submitted; replaying it in sequence
   order through a sequential model reproduces each survivor's durable
   image; and the head's backup agrees with its heap. *)
let check_durable_prefix chain (views : vrec list) =
  let ( let* ) = Result.bind in
  let fail fmt = Printf.ksprintf (fun m -> Error ("durable-prefix: " ^ m)) fmt in
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
          fail
            "replica %d applied a different op set than head %d (missing [%s], extra \
             [%s])"
            m head (ints_to_string missing) (ints_to_string extra))
      (Ok ()) (List.tl survivors)
  in
  let by_seq = Hashtbl.create 64 in
  List.iter (fun v -> if v.v_seq >= 0 then Hashtbl.replace by_seq v.v_seq v) views;
  let* () =
    List.fold_left
      (fun acc seq ->
        let* () = acc in
        if Hashtbl.mem by_seq seq then Ok ()
        else fail "phantom op seq %d was executed" seq)
      (Ok ()) applied
  in
  let applied_set = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace applied_set s ()) applied;
  let* () =
    List.fold_left
      (fun acc v ->
        let* () = acc in
        if v.v_ack >= 0 && not (Hashtbl.mem applied_set v.v_seq) then
          fail "acknowledged write %s (seq %d) lost from survivors" v.v_name v.v_seq
        else Ok ())
      (Ok ()) views
  in
  let model = Hashtbl.create 64 in
  List.iter (fun seq -> apply_model model (Hashtbl.find by_seq seq).v_op) applied;
  let expected = model_contents model in
  let* () =
    List.fold_left
      (fun acc m ->
        let* () = acc in
        if kv_contents (Async.kv_at chain m) = expected then Ok ()
        else fail "replica %d's durable image diverges from the replay of its applied set" m)
      (Ok ()) survivors
  in
  let* () = Async.replicas_consistent chain in
  let* () =
    Result.map_error
      (fun e -> "durable-prefix: head backup: " ^ e)
      (Engine.verify_backup (Async.engine_at chain head))
  in
  Ok applied

(* Cluster atomicity: a cross-shard multi_put is all-or-nothing across its
   participant chains, and a decided one (marker written — or client
   acknowledged, which is later) is applied on all of them. *)
let check_cluster_atomicity cluster multis =
  let applied_on (s, seq) =
    let ch = Cluster.chain cluster s in
    List.mem seq (Async.applied_seqs ch (Async.head_id ch))
  in
  List.fold_left
    (fun acc m ->
      Result.bind acc (fun () ->
          if List.length m.m_parts < 2 then Ok ()
          else begin
            let states = List.map (fun p -> (p, applied_on p)) m.m_parts in
            let all = List.for_all snd states in
            let none = List.for_all (fun (_, a) -> not a) states in
            if not (all || none) then
              Error
                (Printf.sprintf
                   "cluster-atomicity: multi m%d is torn: applied on [%s] but not [%s]"
                   m.m_index
                   (String.concat ";"
                      (List.filter_map
                         (fun ((s, q), a) ->
                           if a then Some (Printf.sprintf "%d:%d" s q) else None)
                         states))
                   (String.concat ";"
                      (List.filter_map
                         (fun ((s, q), a) ->
                           if a then None else Some (Printf.sprintf "%d:%d" s q))
                         states)))
            else if (m.m_marker || m.m_ack >= 0) && not all then
              Error
                (Printf.sprintf
                   "cluster-atomicity: multi m%d was decided (marker%s) but is not \
                    applied on every participant chain"
                   m.m_index
                   (if m.m_ack >= 0 then "+ack" else ""))
            else Ok ()
          end))
    (Ok ()) multis

(* Linearizability of completed reads, per chain, against a sequential
   model: writes are linearized in head-sequence order; a read must have
   returned a state of its key no older than the last write to that key
   that completed before the read began, and containing no write invoked
   after the read returned. Multi_put slices carry their client ack time. *)
let check_linearizable views reads applied =
  let by_seq = Hashtbl.create 64 in
  List.iter (fun v -> if v.v_seq >= 0 then Hashtbl.replace by_seq v.v_seq v) views;
  (* Per-key value timelines over the applied writes, in sequence order. *)
  let model = Hashtbl.create 16 in
  let timelines = Hashtbl.create 16 in
  let push key state =
    let tl = Option.value (Hashtbl.find_opt timelines key) ~default:[] in
    Hashtbl.replace timelines key (state :: tl)
  in
  List.iter
    (fun seq ->
      let v = Hashtbl.find by_seq seq in
      apply_model model v.v_op;
      List.iter (fun key -> push key (seq, v.v_at, Hashtbl.find_opt model key)) (op_keys v.v_op))
    applied;
  let check_read acc r =
    Result.bind acc (fun () ->
        if not r.r_fired then Ok ()
        else begin
          (* The newest write to this key acknowledged before the read began
             must be visible. *)
          let lo =
            List.fold_left
              (fun lo v ->
                if
                  List.mem r.r_key (op_keys v.v_op)
                  && v.v_ack >= 0 && v.v_ack <= r.r_at
                then max lo v.v_seq
                else lo)
              0 views
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
                 (match r.r_value with
                 | Some v -> Printf.sprintf "%S" v
                 | None -> "absent"))
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

let value_size = 64

(* The chain campaign never submits a multi_put, so it keeps
   {!Async.create}'s single-op queue slots; the cluster's batch-sized
   slots would shift its per-seed event counts. *)
let make_cluster ?obs campaign ~seed =
  let slot_bytes =
    match campaign with
    | Chain_campaign _ -> Some (value_size + 64)
    | Cluster_campaign -> None
  in
  Cluster.create ~engine_config:chaos_engine_config ?obs ~hop_ns:5000 ~rpc_ns:500
    ~promote_ns:40_000 ~retry_ns:10_000 ~queue_slots:256 ?slot_bytes
    ~mode:(mode campaign) ~shards:(shards campaign) ~f:(f campaign) ~value_size
    ~node_size:512 ~seed ()

(* Apply one fault at an event boundary. Faults drawn against a dry run
   can be inapplicable by the time they fire (the node was removed, the
   chain is too short to shrink further, the shard does not exist); they
   become deterministic no-ops so a schedule replays identically. *)
let apply_fault cluster ~seed ~obs log fault =
  let note verdict = Buffer.add_string log (fault_to_string fault ^ verdict ^ "\n") in
  let chain s = Cluster.chain cluster s in
  let alive s node =
    node < Async.length (chain s) && List.mem node (Async.members (chain s))
  in
  (* Fault codes in the trace: 0 = reboot, 1 = fail-stop, 2 = stale-view
     probe, 3 = hop jitter (see {!Obs.k_fault}). Only applied faults leave
     an instant — a skipped fault never touched the system. *)
  let trace code node at_event =
    if Obs.enabled obs then
      Obs.emit obs ~kind:Obs.k_fault ~track:0
        ~ts:(Sim.now (Cluster.sim cluster))
        ~dur:(-1) ~a:code ~b:node ~c:at_event
  in
  match fault with
  | Reboot { shard; _ } | Fail_stop { shard; _ } | Stale_probe { shard; _ }
  | Hop_jitter { shard; _ }
    when shard < 0 || shard >= Cluster.shards cluster ->
      note " -> skipped (no such shard)"
  | Reboot { shard; node; downtime_ns; at_event } ->
      if alive shard node then begin
        trace 0 node at_event;
        Async.reboot_now ~downtime_ns (chain shard) node;
        note " -> applied"
      end
      else note " -> skipped (not a member)"
  | Fail_stop { shard; node; at_event } ->
      if alive shard node && List.length (Async.members (chain shard)) > 2 then begin
        trace 1 node at_event;
        Async.fail_stop_now (chain shard) node;
        note " -> applied"
      end
      else note " -> skipped (not a member, or chain too short)"
  | Stale_probe { shard; node; at_event } ->
      if alive shard node then begin
        trace 2 node at_event;
        Async.inject_stale_probe_now (chain shard) node;
        note " -> applied"
      end
      else note " -> skipped (not a member)"
  | Hop_jitter { shard; at_event; amplitude_ns } ->
      trace 3 (-1) at_event;
      Async.set_hop_jitter (chain shard)
        (Some (Rng.create ((seed * 1_000_003) + at_event), amplitude_ns));
      note " -> applied"
  | Prepare_head_fail _ | Marker_head_fail _ ->
      (* Armed on protocol steps, never at event boundaries. *)
      note " -> skipped (targeted fault at boundary)"

(* Fail-stop a shard's current head, as triggered from a 2PC protocol
   step. Only legal while the chain keeps >= 2 members afterwards. *)
let fire_targeted cluster log name ~cross ~shard =
  let ch = Cluster.chain cluster shard in
  let label = Printf.sprintf "%s cross=%d shard=%d" name cross shard in
  if List.length (Async.members ch) > 2 then begin
    Async.fail_stop_now ch (Async.head_id ch);
    Buffer.add_string log (label ^ " -> applied (head fail-stopped)\n")
  end
  else Buffer.add_string log (label ^ " -> skipped (chain too short)\n")

let int_or_dash n = if n >= 0 then string_of_int n else "-"

let value_to_string = function Some v -> Printf.sprintf "%S" v | None -> "absent"

let run ?(recovery_fault = Async.No_fault) ?(obs = Obs.null) campaign ~seed ~ops
    ~schedule () =
  let cluster = make_cluster ~obs campaign ~seed in
  let n_shards = Cluster.shards cluster in
  for s = 0 to n_shards - 1 do
    Async.set_recovery_fault (Cluster.chain cluster s) recovery_fault
  done;
  let steps = gen_workload campaign ~seed ~ops in
  let fault_log = Buffer.create 256 in
  (* Targeted 2PC faults, armed by (cross index, shard). *)
  let prep_armed = Hashtbl.create 8 and marker_armed = Hashtbl.create 8 in
  List.iter
    (fun f ->
      match f with
      | Prepare_head_fail { cross; shard } ->
          Hashtbl.replace prep_armed (cross, shard) ()
      | Marker_head_fail { cross; shard } ->
          Hashtbl.replace marker_armed (cross, shard) ()
      | _ -> ())
    schedule;
  let writes = ref [] and multis = ref [] and reads = ref [] in
  let multi_idx = ref 0 in
  List.iteri
    (fun i (at, cmd) ->
      match cmd with
      | Cwrite op ->
          let w =
            { w_index = i; w_op = op; w_at = at; w_shard = -1; w_seq = -1; w_ack = -1 }
          in
          writes := w :: !writes;
          Cluster.submit cluster ~at
            ~on_submit:(fun ~shard ~seq ->
              w.w_shard <- shard;
              w.w_seq <- seq)
            op
            ~on_complete:(fun t -> w.w_ack <- t)
      | Cmulti bindings ->
          let mi = !multi_idx in
          incr multi_idx;
          let m =
            { m_index = i; m_bindings = bindings; m_at = at; m_parts = [];
              m_marker = false; m_ack = -1 }
          in
          multis := m :: !multis;
          Cluster.multi_put cluster ~at
            ~on_seq:(fun ~shard ~seq ->
              if not (List.mem_assoc shard m.m_parts) then
                m.m_parts <- List.sort compare ((shard, seq) :: m.m_parts))
            ~on_step:(fun step ->
              match step with
              | Cluster.Prepared s ->
                  if Hashtbl.mem prep_armed (mi, s) then begin
                    Hashtbl.remove prep_armed (mi, s);
                    fire_targeted cluster fault_log "prepare-head-fail" ~cross:mi
                      ~shard:s
                  end
              | Cluster.Marker_written ->
                  m.m_marker <- true;
                  List.iter
                    (fun (s, _) ->
                      if Hashtbl.mem marker_armed (mi, s) then begin
                        Hashtbl.remove marker_armed (mi, s);
                        fire_targeted cluster fault_log "marker-head-fail"
                          ~cross:mi ~shard:s
                      end)
                    m.m_parts
              | Cluster.Committed _ | Cluster.Marker_cleared -> ())
            bindings
            ~on_complete:(fun t -> m.m_ack <- t)
      | Cread key ->
          let r =
            { r_index = i; r_key = key; r_at = at; r_shard = Cluster.route cluster key;
              r_fired = false; r_value = None; r_done = -1 }
          in
          reads := r :: !reads;
          Cluster.read cluster ~at key ~on_result:(fun v t ->
              r.r_fired <- true;
              r.r_value <- v;
              r.r_done <- t))
    steps;
  let writes = List.rev !writes
  and multis = List.rev !multis
  and reads = List.rev !reads in
  (* Arm event-boundary faults. *)
  let sim = Cluster.sim cluster in
  let boundary =
    List.filter
      (fun f ->
        match f with Prepare_head_fail _ | Marker_head_fail _ -> false | _ -> true)
      schedule
  in
  let pending = ref boundary in
  Sim.set_boundary_hook sim
    (Some
       (fun () ->
         let n = Sim.events_executed sim in
         let rec fire () =
           match !pending with
           | f :: rest when fault_at_event f <= n ->
               pending := rest;
               apply_fault cluster ~seed ~obs fault_log f;
               fire ()
           | _ -> ()
         in
         fire ()));
  let events = Cluster.run cluster in
  Sim.set_boundary_hook sim None;
  List.iter
    (fun f -> Buffer.add_string fault_log (fault_to_string f ^ " -> unfired\n"))
    !pending;
  List.iter
    (fun (tbl, name) ->
      Hashtbl.iter
        (fun (cross, shard) () ->
          Buffer.add_string fault_log
            (Printf.sprintf "%s cross=%d shard=%d -> unfired\n" name cross shard))
        tbl)
    [ (prep_armed, "prepare-head-fail"); (marker_armed, "marker-head-fail") ];
  (* Assemble each chain's write view: singles plus multi_put slices. *)
  let views = Array.make n_shards [] in
  List.iter
    (fun w ->
      if w.w_seq >= 0 then
        views.(w.w_shard) <-
          { v_name = Printf.sprintf "w%d" w.w_index; v_seq = w.w_seq; v_op = w.w_op;
            v_at = w.w_at; v_ack = w.w_ack }
          :: views.(w.w_shard))
    writes;
  List.iter
    (fun m ->
      let by_shard = Cluster.group_bindings cluster m.m_bindings in
      List.iter
        (fun (s, seq) ->
          match List.assoc_opt s by_shard with
          | Some op ->
              views.(s) <-
                { v_name = Printf.sprintf "m%d" m.m_index; v_seq = seq; v_op = op;
                  v_at = m.m_at; v_ack = m.m_ack }
                :: views.(s)
          | None -> ())
        m.m_parts)
    multis;
  (* Oracles. *)
  let verdict =
    let ( let* ) = Result.bind in
    let* () =
      Result.map_error (fun e -> "quiescence: " ^ e) (Cluster.quiescent cluster)
    in
    let* () = check_cluster_atomicity cluster multis in
    let rec chains s =
      if s >= n_shards then Ok ()
      else
        let chain_views = List.rev views.(s) in
        let chain_reads = List.filter (fun r -> r.r_shard = s) reads in
        let* () =
          Result.map_error (fun e -> Printf.sprintf "shard %d: %s" s e)
            (Result.bind (check_durable_prefix (Cluster.chain cluster s) chain_views)
               (check_linearizable chain_views chain_reads))
        in
        chains (s + 1)
    in
    chains 0
  in
  (* Render the history. *)
  let b = Buffer.create 4096 in
  Printf.bprintf b "# chaos mode=%s seed=%d ops=%d shards=%d f=%d faults=%d\n"
    (mode_name (mode campaign)) seed ops n_shards (f campaign) (List.length schedule);
  if schedule <> [] then begin
    Buffer.add_string b "# schedule:\n";
    List.iter (fun f -> Printf.bprintf b "#   %s\n" (fault_to_string f)) schedule
  end;
  List.iter
    (fun (at, cmd) ->
      match cmd with
      | Cwrite _ ->
          let w = List.find (fun w -> w.w_at = at) writes in
          Printf.bprintf b "w%d at=%d %s shard=%s seq=%s ack=%s\n" w.w_index w.w_at
            (op_to_string w.w_op) (int_or_dash w.w_shard) (int_or_dash w.w_seq)
            (int_or_dash w.w_ack)
      | Cmulti _ ->
          let m = List.find (fun m -> m.m_at = at) multis in
          Printf.bprintf b "m%d at=%d multi[%s] parts=[%s]%s ack=%s\n" m.m_index
            m.m_at
            (String.concat ";"
               (List.map (fun (k, v) -> Printf.sprintf "%d=%S" k v) m.m_bindings))
            (String.concat ";"
               (List.map (fun (s, q) -> Printf.sprintf "%d:%d" s q) m.m_parts))
            (if m.m_marker then " marker" else "")
            (int_or_dash m.m_ack)
      | Cread _ ->
          let r = List.find (fun r -> r.r_at = at) reads in
          if r.r_fired then
            Printf.bprintf b "r%d at=%d key=%d shard=%d -> %s done=%d\n" r.r_index
              r.r_at r.r_key r.r_shard (value_to_string r.r_value) r.r_done
          else
            Printf.bprintf b "r%d at=%d key=%d shard=%d -> (no response)\n" r.r_index
              r.r_at r.r_key r.r_shard)
    steps;
  if Buffer.length fault_log > 0 then begin
    Buffer.add_string b "# faults:\n";
    String.split_on_char '\n' (Buffer.contents fault_log)
    |> List.iter (fun l -> if l <> "" then Printf.bprintf b "#   %s\n" l)
  end;
  let chains = List.init n_shards (Cluster.chain cluster) in
  List.iteri
    (fun s ch ->
      Printf.bprintf b "# shard%d view=%d members=[%s] stale-drops=%d\n" s
        (Async.view_id ch)
        (ints_to_string (Async.members ch))
        (Async.stale_drops ch))
    chains;
  Printf.bprintf b "# events=%d crossed=%d redrives=%d\n" events
    (Cluster.crossed cluster) (Cluster.redrives cluster);
  Printf.bprintf b "verdict: %s\n"
    (match verdict with Ok () -> "PASS" | Error e -> "FAIL: " ^ e);
  let commit_h = Metrics.hist (Cluster.registry cluster) "cluster.commit_ns" in
  {
    seed;
    ops;
    schedule;
    verdict;
    history = Buffer.contents b;
    events;
    submitted = List.length (List.filter (fun w -> w.w_seq >= 0) writes);
    acked = List.length (List.filter (fun w -> w.w_ack >= 0) writes);
    multis = List.length multis;
    multis_acked = List.length (List.filter (fun m -> m.m_ack >= 0) multis);
    crossed = Cluster.crossed cluster;
    redrives = Cluster.redrives cluster;
    reads = List.length reads;
    stale_drops = List.fold_left (fun n ch -> n + Async.stale_drops ch) 0 chains;
    survivors = List.map Async.members chains;
    fingerprint = lazy (Cluster.fingerprint cluster);
    p50_ns = Metrics.percentile commit_h 50.;
    p95_ns = Metrics.percentile commit_h 95.;
    p99_ns = Metrics.percentile commit_h 99.;
  }

let explore ?recovery_fault ?obs ?ops ?(faults = 6) campaign ~seed () =
  let ops = Option.value ops ~default:(default_ops campaign) in
  (* Dry run: measure the fault-free event count so the schedule spans the
     whole workload. Only the faulted run is traced. *)
  let dry = run campaign ~seed ~ops ~schedule:[] () in
  let multis = count_multis (gen_workload campaign ~seed ~ops) in
  let schedule = gen_schedule campaign ~seed ~faults ~events:dry.events ~multis in
  run ?recovery_fault ?obs campaign ~seed ~ops ~schedule ()

let shrink ?recovery_fault campaign ~seed ~ops schedule =
  let fails s = (run ?recovery_fault campaign ~seed ~ops ~schedule:s ()).verdict <> Ok () in
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
