(* The replicated shard-cluster: chain-per-shard composition (DESIGN.md §14).

   Each shard is an {!Kamino_chain.Async_chain} of f+2 replicas — the head
   holds the dynamic backup, per §5 of the paper — and keys spread across
   the shard-chains with the same multiplicative-hash router the in-process
   sharded façade uses ({!Kamino_shard.Shard.route_key}). Cross-shard
   transactions run the persistent-marker prepare/commit protocol over
   chain *heads*:

     prepare at every participant head at once, one event per
         participant in ascending shard id (the op executes inside a
         prepared-but-undecided engine transaction; the chain wedges so
         no later sequence number can overtake it)
     -> revalidate every participant (a head that died undecided rolled
        its prepared state back, or took it to the grave — re-prepare
        through the *current* head under the same sequence number)
     -> write marker payload ((shard, seq, node, tx_id) per participant),
        flush, fence; set valid flag, flush, fence   <- the commit point
     -> cluster_commit every participant at once, again one event each
        (commit the prepared transaction if it is still alive, else
        idempotently re-drive through whatever head the chain has now),
        unwedge, propagate down the chain
     -> clear marker, flush, fence

   Each arrow is one RPC delay after the last event of the step before
   it. A fanned-out step is one event per participant, all at the same
   instant, so the chaos explorer can still land fail-stops, view changes
   and head promotions *between* any two protocol steps. Two further
   rules make the protocol survive head churn:

   - a participant whose head is mid-promotion (still [Intent_only],
     backup build in flight) cannot prepare; the coordinator retries the
     step after [retry_ns] until the promotion completes;
   - after any view change, every committed-but-unacknowledged cluster
     operation is re-driven through the chain's new head (execution and
     forwarding are exactly-once guarded, so re-driving is always safe) —
     without this, a head that fail-stops after committing locally but
     before forwarding would take the operation to the grave on its chain
     while the other participants keep it: an atomicity violation.

   Reboot recovery is the marker's all-or-nothing decision, exactly as in
   the in-process sharded façade: a Running intent record found at reboot
   of node [n] on shard [s] rolls forward iff a valid marker lists
   [(s, n, tx_id)]. *)

module Sim = Kamino_sim.Engine
module Clock = Kamino_sim.Clock
module Region = Kamino_nvm.Region
module Commit_marker = Kamino_nvm.Commit_marker
module Engine = Kamino_core.Engine
module Metrics = Kamino_obs.Metrics
module Async = Kamino_chain.Async_chain
module Op = Kamino_chain.Op
module Shard = Kamino_shard.Shard

type cross_step =
  | Prepared of int
  | Marker_written
  | Committed of int
  | Marker_cleared

type participant = {
  p_shard : int;
  p_op : Op.t;
  mutable p_seq : int;
  mutable p_node : int;  (* head that holds the prepared transaction *)
  mutable p_tx_id : int;
  mutable p_committed : bool;
  mutable p_acked : bool;
}

type cross = {
  x_at : int;  (* client submission time *)
  parts : participant array;  (* ascending shard id *)
  x_on_step : cross_step -> unit;
  x_on_seq : (shard:int -> seq:int -> unit) option;
  x_on_complete : int -> unit;
  mutable x_done : bool;
  mutable x_left : int;  (* participants yet to finish the fanned-out step *)
}

type t = {
  sim : Sim.t;
  chains : Async.t array;
  marker : Commit_marker.t;
  clock : Clock.t;  (* the coordinator's own timeline (marker persists) *)
  rpc_ns : int;
  retry_ns : int;
  registry : Metrics.t;
  commit_h : Metrics.hist;  (* every completed write, single and cross *)
  cross_h : Metrics.hist;  (* cross-shard writes only *)
  committed_c : Metrics.counter;
  crossed_c : Metrics.counter;
  redrives_c : Metrics.counter;
  re_prepares_c : Metrics.counter;
  retries_c : Metrics.counter;  (* prepare attempts parked on a promotion *)
  mutable active : cross option;  (* marker record is single-occupancy *)
  queue : cross Queue.t;
  mutable outstanding : cross list;  (* not yet fully acknowledged *)
}

(* --- the serialized coordinator state machine ----------------------------- *)

let finish_if_acked t x at =
  if (not x.x_done) && Array.for_all (fun p -> p.p_acked) x.parts then begin
    x.x_done <- true;
    t.outstanding <- List.filter (fun y -> y != x) t.outstanding;
    Metrics.observe t.commit_h (at - x.x_at);
    Metrics.observe t.cross_h (at - x.x_at);
    Metrics.incr t.committed_c;
    Metrics.incr t.crossed_c;
    x.x_on_complete at
  end

(* Run [step t x k] for every participant [k] as its own event, all
   [delay] from now; the queue breaks ties first in, first out, so they
   run in ascending shard order. *)
let fan_out t x ~delay step =
  x.x_left <- Array.length x.parts;
  Array.iteri (fun k _ -> Sim.schedule_after t.sim ~delay (fun () -> step t x k)) x.parts

(* One participant finished the fanned-out step: the last one schedules
   [next] an RPC delay later. *)
let count_down t x next =
  x.x_left <- x.x_left - 1;
  if x.x_left = 0 then Sim.schedule_after t.sim ~delay:t.rpc_ns (fun () -> next t x)

let rec step_prepare t x k =
  let p = x.parts.(k) in
  let ch = t.chains.(p.p_shard) in
  if not (Async.head_can_prepare ch) then begin
    (* The head is mid-promotion (§5.2 backup build in flight): it cannot
       hold a prepared transaction yet. Park and retry. *)
    Metrics.incr t.retries_c;
    Sim.schedule_after t.sim ~delay:t.retry_ns (fun () -> step_prepare t x k)
  end
  else begin
    let seq, node, tx_id = Async.cluster_prepare ch p.p_op in
    p.p_seq <- seq;
    p.p_node <- node;
    p.p_tx_id <- tx_id;
    (match x.x_on_seq with Some f -> f ~shard:p.p_shard ~seq | None -> ());
    x.x_on_step (Prepared p.p_shard);
    count_down t x step_marker
  end

(* Before the marker persists, every participant must hold a live prepared
   transaction at its *current* head. A participant whose prepared head
   rebooted (rolled back — no valid marker yet) or fail-stopped (prepared
   state gone with the node) is re-prepared through the current head under
   the same sequence number; each re-prepare is its own event, so faults
   can land between any two. *)
and step_marker t x =
  match
    Array.find_opt
      (fun p -> not (Async.cluster_prepared_live t.chains.(p.p_shard) ~seq:p.p_seq))
      x.parts
  with
  | Some p ->
      let ch = t.chains.(p.p_shard) in
      if not (Async.head_can_prepare ch) then begin
        Metrics.incr t.retries_c;
        Sim.schedule_after t.sim ~delay:t.retry_ns (fun () -> step_marker t x)
      end
      else begin
        let _seq, node, tx_id = Async.cluster_prepare ~seq:p.p_seq ch p.p_op in
        p.p_node <- node;
        p.p_tx_id <- tx_id;
        Metrics.incr t.re_prepares_c;
        x.x_on_step (Prepared p.p_shard);
        Sim.schedule_after t.sim ~delay:t.rpc_ns (fun () -> step_marker t x)
      end
  | None ->
      (* One marker entry per participant: shard, chain op seq, prepared
         head node, engine tx id. *)
      ignore (Clock.advance_to t.clock (Sim.now t.sim));
      Commit_marker.write t.marker (Array.length x.parts) (fun k j ->
          let p = x.parts.(k) in
          match j with 0 -> p.p_shard | 1 -> p.p_seq | 2 -> p.p_node | _ -> p.p_tx_id);
      x.x_on_step Marker_written;
      fan_out t x ~delay:t.rpc_ns step_commit

and step_commit t x k =
  let p = x.parts.(k) in
  let ch = t.chains.(p.p_shard) in
  Async.cluster_commit ch ~seq:p.p_seq p.p_op ~on_ack:(fun at ->
      p.p_acked <- true;
      finish_if_acked t x at);
  p.p_committed <- true;
  x.x_on_step (Committed p.p_shard);
  count_down t x step_clear

and step_clear t x =
  ignore (Clock.advance_to t.clock (Sim.now t.sim));
  Commit_marker.clear t.marker;
  x.x_on_step Marker_cleared;
  t.active <- None;
  start_next t

and start_next t =
  match t.active with
  | Some _ -> ()
  | None -> (
      match Queue.take_opt t.queue with
      | None -> ()
      | Some x ->
          t.active <- Some x;
          t.outstanding <- x :: t.outstanding;
          fan_out t x ~delay:0 step_prepare)

(* After any view change on shard [s]: re-drive every committed-but-
   unacknowledged cluster operation through the chain's new head. The
   prepared-phase cases need nothing here — [step_marker] revalidates, and
   a not-yet-prepared participant will prepare at whatever head exists
   when its turn comes.

   The re-drives run synchronously, in ascending sequence order. Both
   halves matter: each node's exactly-once guard ([seq > exec_seq]) is
   monotone, so a higher-sequence re-drive (or a fresh client submission)
   executing first would make every lower re-drive a silent no-op on the
   survivors — a torn cross-chain transaction. Firing inside the
   view-change event leaves no window for either reordering. *)
let on_view_change t s () =
  let due = ref [] in
  List.iter
    (fun x ->
      Array.iter
        (fun p ->
          if p.p_shard = s && p.p_committed && not p.p_acked then
            due := p :: !due)
        x.parts)
    t.outstanding;
  List.iter
    (fun p ->
      Metrics.incr t.redrives_c;
      Async.cluster_redrive t.chains.(s) ~seq:p.p_seq p.p_op)
    (List.sort (fun a b -> compare a.p_seq b.p_seq) !due)

let create ?(engine_config = Engine.default_config) ?obs ?(hop_ns = 5000)
    ?(rpc_ns = 1000) ?(promote_ns = 50_000) ?(retry_ns = 10_000)
    ?(queue_slots = 256) ?slot_bytes ?(mode = Async.Kamino_chain { alpha = None })
    ~shards ~f ~value_size ~node_size ~seed () =
  if shards <= 0 then invalid_arg "Cluster.create: shards must be positive";
  let sim = Sim.create () in
  (* Slots must hold a [Op.Batch] slice of a multi_put — up to four
     sub-ops of up to [value_size] bytes each, plus framing. *)
  let slot_bytes =
    Option.value slot_bytes ~default:(16 + (4 * (value_size + 96)))
  in
  let chains =
    Array.init shards (fun s ->
        Async.create ~sim ~engine_config ?obs ~hop_ns ~rpc_ns ~promote_ns
          ~queue_slots ~slot_bytes ~mode ~f ~value_size ~node_size
          ~seed:(seed + (1000 * s)) ())
  in
  let clock = Clock.create () in
  let marker =
    Commit_marker.create ~cost:engine_config.Engine.cost
      ~crash_mode:engine_config.Engine.crash_mode ~seed ~clock ~entry_words:4
      ~max_entries:shards
  in
  let registry = Metrics.create () in
  let t =
    {
      sim;
      chains;
      marker;
      clock;
      rpc_ns;
      retry_ns;
      registry;
      commit_h = Metrics.hist registry "cluster.commit_ns";
      cross_h = Metrics.hist registry "cluster.cross_commit_ns";
      committed_c = Metrics.counter registry "cluster.committed";
      crossed_c = Metrics.counter registry "cluster.crossed";
      redrives_c = Metrics.counter registry "cluster.redrives";
      re_prepares_c = Metrics.counter registry "cluster.re_prepares";
      retries_c = Metrics.counter registry "cluster.prepare_retries";
      active = None;
      queue = Queue.create ();
      outstanding = [];
    }
  in
  Array.iteri
    (fun s ch ->
      Async.set_view_change_hook ch (Some (on_view_change t s));
      (* The recovery decision: does a valid marker list (s, node, tx_id)? *)
      Async.set_recovery_hook ch
        (Some
           (fun ~node ~tx_id ->
             match Commit_marker.read t.marker with
             | None -> false
             | Some es -> Array.exists (fun e -> e.(0) = s && e.(2) = node && e.(3) = tx_id) es)))
    chains;
  t

let sim t = t.sim

let shards t = Array.length t.chains

let chain t s = t.chains.(s)

let registry t = t.registry

let marker_region t = Commit_marker.region t.marker

let route t key = Shard.route_key ~shards:(Array.length t.chains) key

let crossed t = Metrics.value t.crossed_c

let redrives t = Metrics.value t.redrives_c

let run t = Sim.run t.sim

(* --- client interface ------------------------------------------------------ *)

let key_of_op = function
  | Op.Put (k, _) | Op.Delete k | Op.Append (k, _) -> k
  | Op.Batch _ -> invalid_arg "Cluster.submit: use multi_put for batches"

let submit t ~at ?(on_submit = fun ~shard:_ ~seq:_ -> ()) op ~on_complete =
  let s = route t (key_of_op op) in
  Async.submit t.chains.(s) ~at
    ~on_submit:(fun seq -> on_submit ~shard:s ~seq)
    op
    ~on_complete:(fun done_ns ->
      Metrics.observe t.commit_h (done_ns - at);
      Metrics.incr t.committed_c;
      on_complete done_ns)

(* The per-shard decomposition of a multi_put — one [Op] per participant
   chain, binding order preserved. Exposed so the chaos oracles can
   reconstruct exactly what each chain was asked to apply. *)
let group_bindings t bindings =
  if bindings = [] then invalid_arg "Cluster.multi_put: no bindings";
  let shards = Array.length t.chains in
  let groups = Array.make shards [] in
  List.iter
    (fun (k, v) ->
      let s = route t k in
      groups.(s) <- (k, v) :: groups.(s))
    bindings;
  Array.to_list groups
  |> List.mapi (fun s g -> (s, List.rev g))
  |> List.filter (fun (_, g) -> g <> [])
  |> List.map (fun (s, g) ->
         match g with
         | [ (k, v) ] -> (s, Op.Put (k, v))
         | _ -> (s, Op.Batch (List.map (fun (k, v) -> Op.Put (k, v)) g)))

let multi_put t ~at ?(on_step = fun _ -> ()) ?on_seq bindings ~on_complete =
  let parts =
    List.map
      (fun (s, op) ->
        {
          p_shard = s;
          p_op = op;
          p_seq = -1;
          p_node = -1;
          p_tx_id = -1;
          p_committed = false;
          p_acked = false;
        })
      (group_bindings t bindings)
  in
  match parts with
  | [ p ] ->
      (* Single-shard batch: no cross-chain coordination needed — one
         chain transaction is already atomic. *)
      Async.submit t.chains.(p.p_shard) ~at
        ~on_submit:(fun seq ->
          match on_seq with
          | Some f -> f ~shard:p.p_shard ~seq
          | None -> ())
        p.p_op
        ~on_complete:(fun done_ns ->
          Metrics.observe t.commit_h (done_ns - at);
          Metrics.incr t.committed_c;
          on_complete done_ns)
  | parts ->
      let x =
        {
          x_at = at;
          parts = Array.of_list parts;
          x_on_step = on_step;
          x_on_seq = on_seq;
          x_on_complete = on_complete;
          x_done = false;
          x_left = 0;
        }
      in
      Sim.schedule t.sim ~at (fun () ->
          Queue.add x t.queue;
          start_next t)

let read t ~at key ~on_result =
  let s = route t key in
  Async.read t.chains.(s) ~at key ~on_result

(* --- verification ---------------------------------------------------------- *)

let quiescent t =
  if t.active <> None then Error "a cross-chain transaction is still active"
  else if not (Queue.is_empty t.queue) then
    Error "cross-chain transactions are still queued"
  else if t.outstanding <> [] then
    Error "a cross-chain transaction is still awaiting tail acknowledgments"
  else if Commit_marker.read t.marker <> None then Error "the commit marker was never retired"
  else Ok ()

let verify t =
  let rec chains s =
    if s >= Array.length t.chains then Ok ()
    else
      let ch = t.chains.(s) in
      match Async.replicas_consistent ch with
      | Error e -> Error (Printf.sprintf "shard %d: %s" s e)
      | Ok () -> (
          match Engine.verify_backup (Async.engine_at ch (Async.head_id ch)) with
          | Error e -> Error (Printf.sprintf "shard %d head backup: %s" s e)
          | Ok () -> chains (s + 1))
  in
  match quiescent t with Error _ as e -> e | Ok () -> chains 0

(* Cost-free determinism fingerprint: every replica engine's fingerprint
   (metrics + content digests), each chain's view, and the marker region's
   digest, folded to one hex string. Byte-identical across identical
   (seed, workload, schedule) runs — the cluster-level determinism oracle. *)
let fingerprint t =
  let buf = Buffer.create 512 in
  Array.iteri
    (fun s ch ->
      Buffer.add_string buf
        (Printf.sprintf "shard%d view%d members[%s];" s (Async.view_id ch)
           (String.concat "," (List.map string_of_int (Async.members ch))));
      for i = 0 to Async.length ch - 1 do
        Buffer.add_string buf (Engine.fingerprint (Async.engine_at ch i));
        Buffer.add_char buf ';'
      done)
    t.chains;
  Buffer.add_string buf (Region.digest (Commit_marker.region t.marker));
  Digest.to_hex (Digest.string (Buffer.contents buf))
