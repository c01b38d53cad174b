module Sim = Kamino_sim.Engine
module Clock = Kamino_sim.Clock
module Rng = Kamino_sim.Rng
module Region = Kamino_nvm.Region
module Heap = Kamino_heap.Heap
module Engine = Kamino_core.Engine
module Locks = Kamino_core.Locks
module Backup = Kamino_core.Backup
module Kv = Kamino_kv.Kv
module Obs = Kamino_obs.Obs

type mode = Traditional | Kamino_chain of { alpha : float option }

type recovery_fault = No_fault | Drop_inflight_on_reboot

type node = {
  id : int;
  engine : Engine.t;
  mutable kv : Kv.t;
  clock : Clock.t;
  input_region : Region.t;
  mutable input : Opqueue.t;
  inflight_region : Region.t;
  mutable inflight : Opqueue.t;
  exec_seq_obj : Heap.ptr;  (* last executed op sequence, bumped in-tx *)
  mutable last_forwarded : int;  (* volatile dedup for the in-flight queue *)
  mutable up : bool;
  mutable removed : bool;  (* fail-stopped out of the view, permanently *)
  mutable fwd_link_at : int;
      (* latest delivery time scheduled on this node's forward link — keeps
         the link FIFO even when per-hop jitter would reorder messages *)
  mutable cluster_tx : (int * Engine.tx) option;
      (* a cluster-prepared transaction parked at this head: (op seq,
         prepared tx). Volatile — a crash leaves only the durable Running
         record, whose fate the recovery hook decides from the marker. *)
  applied : (int, unit) Hashtbl.t;
      (* omniscient-observer record of every op sequence whose transaction
         committed here; survives reboots (it is oracle instrumentation,
         not replica state) but is meaningless once the node is removed *)
}

type t = {
  mode : mode;
  sim : Sim.t;
  hop_ns : int;
  rpc_ns : int;
  promote_ns : int;
  nodes : node array;
  membership : Membership.t;
  mutable next_op_seq : int;
  (* head-side completion plumbing: op seq -> (write-lock keys, callback) *)
  pending : (int, int list * (int -> unit)) Hashtbl.t;
  mutable jitter : (Rng.t * int) option;  (* per-hop delay noise: rng, amplitude *)
  mutable stale_drops : int;
  mutable promoting : int option;  (* replica whose head promotion is in flight *)
  mutable recovery_fault : recovery_fault;
  obs : Obs.t;  (* chain-level events: hops, view changes, promotions *)
  wire : Buffer.t;  (* envelope scratch: each envelope is encoded once here *)
  (* Cluster composition (2PC over chain heads, DESIGN.md §14). While a
     cluster transaction is prepared-but-undecided on this chain the head
     is wedged: client submissions park in [deferred] so no later sequence
     number can execute (and forward) ahead of the prepared one — the
     exactly-once guard is monotone in op sequence, so order violations
     would silently drop the cluster op downstream. *)
  mutable cluster_hold : bool;
  deferred : (Op.t * (int -> unit) * (int -> unit)) Queue.t;
      (* parked submissions: op, on_submit, on_complete *)
  mutable on_view_change : (unit -> unit) option;
  mutable recovery_hook : (node:int -> tx_id:int -> bool) option;
      (* the cluster marker's all-or-nothing decision for a Running record
         found at reboot of [node] — plumbed into [Engine.recover] *)
}

(* Track layout: track 0 is chain-level control; node [i] owns tracks
   [10 (i+1) .. 10 (i+1) + 3] — tx, applier, nvm (the engine's three, see
   {!Engine.create}) and its forward/ack link. *)
let node_track i = 10 * (i + 1)
let link_track i = node_track i + 3

(* Envelope: 8-byte op sequence followed by the encoded command. The
   returned string is the message every hop forwards. *)
let envelope t ~seq op =
  Buffer.clear t.wire;
  Buffer.add_int64_le t.wire (Int64.of_int seq);
  Op.add_encoded t.wire op;
  Buffer.contents t.wire

(* Envelopes are read in place from a queue's slot view. Decoding can fail
   if the slot was corrupted in place (the queue's checksum guards torn
   publishes, not bit rot under a valid checksum): raise [Region.Corrupt]
   naming the replica, the [queue] and the slot instead of executing it. *)
let corrupt node queue slot ~off what =
  let seq = Opqueue.Slot.seq slot in
  let structure = Printf.sprintf "Async_chain node %d %s entry %d" node.id queue seq in
  Region.corrupt ~structure ~off "%s" what

let envelope_seq node queue slot =
  if Opqueue.Slot.length slot < 8 then
    corrupt node queue slot ~off:0 "envelope shorter than its sequence word";
  Int64.to_int (Bytes.get_int64_le (Opqueue.Slot.bytes slot) 0)

let envelope_op node queue slot =
  match Op.decode_sub (Opqueue.Slot.bytes slot) 8 (Opqueue.Slot.length slot - 8) with
  | op -> op
  | exception Region.Corrupt { off; what; _ } -> corrupt node queue slot ~off what

let length t = Array.length t.nodes

let sim t = t.sim

let kv_at t i = t.nodes.(i).kv

let engine_at t i = t.nodes.(i).engine

let input_queue t i = t.nodes.(i).input

let inflight_queue t i = t.nodes.(i).inflight

let executed_seq t i =
  let n = t.nodes.(i) in
  Engine.peek_int n.engine n.exec_seq_obj 0

let applied_seqs t i =
  let seqs = Hashtbl.fold (fun seq () acc -> seq :: acc) t.nodes.(i).applied [] in
  List.sort compare seqs

let members t = (Membership.current t.membership).Membership.members

let view_id t = (Membership.current t.membership).Membership.id

let stale_drops t = t.stale_drops

let promotion_pending t = t.promoting

let set_hop_jitter t j = t.jitter <- j

let set_recovery_fault t f = t.recovery_fault <- f

let head_id t =
  match members t with
  | h :: _ -> h
  | [] -> invalid_arg "Async_chain: the chain has no members left"

let tail_id t =
  match Membership.tail t.membership with
  | Some tl -> tl
  | None -> invalid_arg "Async_chain: the chain has no members left"

let storage_bytes t =
  List.fold_left
    (fun acc i ->
      let n = t.nodes.(i) in
      acc + Engine.storage_bytes n.engine + Region.size n.input_region
      + Region.size n.inflight_region)
    0 (members t)

let create ?sim ?(engine_config = Engine.default_config) ?(obs = Obs.null)
    ?(hop_ns = 5000) ?(rpc_ns = 1000) ?(promote_ns = 50_000) ?(queue_slots = 512)
    ?slot_bytes ~mode ~f ~value_size ~node_size ~seed () =
  if f < 1 then invalid_arg "Async_chain.create: f must be at least 1";
  let n_nodes = match mode with Traditional -> f + 1 | Kamino_chain _ -> f + 2 in
  let slot_bytes =
    match slot_bytes with Some b -> b | None -> value_size + 64
  in
  let qsize = Opqueue.required_size ~slot_bytes ~n_slots:queue_slots in
  let nodes =
    Array.init n_nodes (fun i ->
        let kind =
          match mode with
          | Traditional -> Engine.Undo_logging
          | Kamino_chain _ when i > 0 -> Engine.Intent_only
          | Kamino_chain { alpha = None } -> Engine.Kamino_simple
          | Kamino_chain { alpha = Some alpha } ->
              Engine.Kamino_dynamic { alpha; policy = Backup.Lru_policy }
        in
        let engine =
          Engine.create ~config:engine_config ~obs ~obs_track:(node_track i)
            ~kind ~seed:(seed + i) ()
        in
        let clock = Clock.create () in
        Engine.set_clock engine clock;
        let kv = Kv.create engine ~value_size ~node_size in
        let exec_seq_obj =
          Engine.with_tx engine (fun tx ->
              let o = Engine.alloc tx 8 in
              Engine.write_int tx o 0 0;
              o)
        in
        let rng = Rng.create (seed + 100 + i) in
        let mk () =
          Region.create ~cost:engine_config.Engine.cost
            ~crash_mode:engine_config.Engine.crash_mode ~rng:(Rng.split rng) ~clock
            ~size:qsize ()
        in
        let input_region = mk () and inflight_region = mk () in
        if Obs.enabled obs then begin
          Obs.name_track obs (node_track i) (Printf.sprintf "node%d/tx" i);
          Obs.name_track obs (node_track i + 1) (Printf.sprintf "node%d/applier" i);
          Obs.name_track obs (node_track i + 2) (Printf.sprintf "node%d/nvm" i);
          Obs.name_track obs (link_track i) (Printf.sprintf "node%d/link" i);
          Region.set_obs input_region ~track:(node_track i + 2) obs;
          Region.set_obs inflight_region ~track:(node_track i + 2) obs;
          Obs.name_track obs 0 "chain"
        end;
        {
          id = i;
          engine;
          kv;
          clock;
          input_region;
          input = Opqueue.format input_region ~slot_bytes ~n_slots:queue_slots;
          inflight_region;
          inflight = Opqueue.format inflight_region ~slot_bytes ~n_slots:queue_slots;
          exec_seq_obj;
          last_forwarded = 0;
          up = true;
          removed = false;
          fwd_link_at = 0;
          cluster_tx = None;
          applied = Hashtbl.create 64;
        })
  in
  {
    mode;
    sim = (match sim with Some s -> s | None -> Sim.create ());
    hop_ns;
    rpc_ns;
    promote_ns;
    nodes;
    membership =
      Membership.create
        ~members:(List.init n_nodes Fun.id)
        ~failure_timeout_ns:(50 * hop_ns);
    next_op_seq = 1;
    pending = Hashtbl.create 64;
    jitter = None;
    stale_drops = 0;
    promoting = None;
    recovery_fault = No_fault;
    obs;
    wire = Buffer.create 256;
    cluster_hold = false;
    deferred = Queue.create ();
    on_view_change = None;
    recovery_hook = None;
  }

(* Bring a node's clock to the event time and charge RPC processing. *)
let enter t node =
  ignore (Clock.advance_to node.clock (Sim.now t.sim));
  Clock.advance node.clock t.rpc_ns;
  Engine.set_clock node.engine node.clock

let hop_delay t =
  t.hop_ns
  + match t.jitter with Some (rng, amp) when amp > 0 -> Rng.int rng amp | _ -> 0

(* Execute a command exactly once: the last-executed sequence number is
   part of the same transaction, so a reboot can never double-apply.
   Returns whether a transaction ran. One that runs declares at least the
   exec-seq object, so its first intent barrier fences before its first
   in-place write. *)
let execute node ~seq op =
  let already = Engine.peek_int node.engine node.exec_seq_obj 0 in
  seq > already
  && begin
       Engine.with_tx node.engine (fun tx ->
           Op.apply_tx tx op node.kv;
           Engine.add tx node.exec_seq_obj;
           Engine.write_int tx node.exec_seq_obj 0 seq);
       Hashtbl.replace node.applied seq ();
       true
     end

(* The in-flight copy is durable before the input entry is dropped (or,
   at the head, before the op is forwarded): one fence, after the
   entry's flush. *)
let record_inflight node ~seq payload =
  if seq > node.last_forwarded then begin
    ignore (Opqueue.enqueue node.inflight payload);
    Region.fence node.inflight_region;
    node.last_forwarded <- seq
  end

(* Garbage-collect the in-flight queue up to (and including) an op
   sequence: queue positions and op sequences differ after reboots, so the
   match is on the envelope's sequence word (the command is not decoded). *)
let rec gc_inflight node op_seq =
  match Opqueue.peek node.inflight with
  | Some slot when envelope_seq node "inflight" slot <= op_seq ->
      Opqueue.drop_peeked node.inflight;
      gc_inflight node op_seq
  | Some _ | None -> ()

(* Snapshot the in-flight entries, as (op seq, message), before re-driving
   them: the re-drive may itself garbage-collect the queue (a node that
   became tail acks its own backlog), and iterating a queue while dequeuing
   from it is undefined. Each command is decoded once here, so a corrupt
   entry is reported before anything is re-sent. *)
let inflight_entries node =
  let acc = ref [] in
  Opqueue.iter node.inflight (fun slot ->
      let seq = envelope_seq node "inflight" slot in
      ignore (envelope_op node "inflight" slot);
      acc := (seq, Opqueue.Slot.to_string slot) :: !acc);
  List.rev !acc

(* --- message handlers ----------------------------------------------------- *)

(* Forward sends ride a FIFO link (TCP in the real system): with per-hop
   jitter enabled, a naively scheduled later send could overtake an earlier
   one and make a replica observe a sequence gap it would then never fill.
   Clamping each delivery after the link's previous one preserves order. *)
let send_on_fwd_link t from_node ~at ~seq ~dst f =
  let at = max at (from_node.fwd_link_at + 1) in
  from_node.fwd_link_at <- at;
  (if Obs.enabled t.obs then
     let ts = Clock.now from_node.clock in
     Obs.emit t.obs ~kind:Obs.k_hop ~track:(link_track from_node.id) ~ts
       ~dur:(at - ts) ~a:seq ~b:from_node.id ~c:dst);
  Sim.schedule t.sim ~at f

(* A hop outside the FIFO forward link (tail ack, cleanup cascade). *)
let trace_hop t from_node ~at ~seq ~dst =
  if Obs.enabled t.obs then begin
    let ts = Clock.now from_node.clock in
    Obs.emit t.obs ~kind:Obs.k_hop ~track:(link_track from_node.id) ~ts
      ~dur:(max 0 (at - ts)) ~a:seq ~b:from_node.id ~c:dst
  end

let rec deliver_forward t ~view i payload =
  match Membership.validate t.membership ~view_id:view with
  | `Stale _ -> t.stale_drops <- t.stale_drops + 1
  | `Current ->
      let node = t.nodes.(i) in
      if node.up && not node.removed then begin
        enter t node;
        (* Buffer in the persistent input queue before anything else. The
           entry is flushed here and made durable by the next fence: its
           transaction's first intent barrier, which precedes every
           in-place write, the forward and the ack (DESIGN.md par20). *)
        ignore (Opqueue.enqueue node.input payload);
        process_input t node
      end

and process_input t node =
  match Opqueue.peek node.input with
  | None -> ()
  | Some slot ->
      let seq = envelope_seq node "input" slot in
      (* No transaction, no intent barrier: fence the entry here. *)
      if not (execute node ~seq (envelope_op node "input" slot)) then
        Region.fence node.input_region;
      (* §5.1's order: execute, forward, then move the entry from the
         input queue to the in-flight queue, so the message leaves as soon
         as the execute commits. The input entry stays durable until the
         in-flight copy is: a crash in between re-processes it at reboot,
         where execute is a no-op and the re-sent forward is discarded
         downstream by the exec-seq guard. A tail acks before it drops its
         entry; a crash in between re-acks, which the head ignores. A
         replica with a successor copies the slot out once, as the message
         it forwards and records in flight; a tail copies nothing. *)
      (match Membership.successor t.membership node.id with
      | Some nxt ->
          let payload = Opqueue.Slot.to_string slot in
          forward t node ~seq nxt payload;
          record_inflight node ~seq payload
      | None -> finish t node ~seq);
      Opqueue.drop_peeked node.input;
      process_input t node

and forward_or_finish t node ~seq payload =
  match Membership.successor t.membership node.id with
  | Some nxt -> forward t node ~seq nxt payload
  | None -> finish t node ~seq

and forward t node ~seq nxt payload =
  let vid = view_id t in
  send_on_fwd_link t node
    ~at:(Clock.now node.clock + hop_delay t)
    ~seq ~dst:nxt
    (fun () -> deliver_forward t ~view:vid nxt payload)

(* Tail: acknowledge to the head and start the cleanup cascade. A node
   that just became tail also drains its own in-flight backlog here — it
   has nobody left to forward to. *)
and finish t node ~seq =
  let vid = view_id t in
  let at = Clock.now node.clock + hop_delay t in
  trace_hop t node ~at ~seq ~dst:(head_id t);
  Sim.schedule t.sim ~at (fun () -> deliver_ack t ~view:vid seq);
  gc_inflight node seq;
  match Membership.predecessor t.membership node.id with
  | Some p ->
      trace_hop t node ~at ~seq ~dst:p;
      Sim.schedule t.sim ~at (fun () -> deliver_cleanup t ~view:vid p seq)
  | None -> ()

and deliver_ack t ~view seq =
  match Membership.validate t.membership ~view_id:view with
  | `Stale _ -> t.stale_drops <- t.stale_drops + 1
  | `Current ->
      let head = t.nodes.(head_id t) in
      if head.up then begin
        enter t head;
        (* Completion: release the head's extended locks, answer the client,
           and garbage-collect the head's in-flight entry. A head promoted
           after the original submitted never held these locks; releasing
           them there is a harmless no-op. *)
        (match Hashtbl.find_opt t.pending seq with
        | Some (keys, callback) ->
            Hashtbl.remove t.pending seq;
            Locks.release_held_writes (Engine.locks head.engine) keys
              ~at:(Clock.now head.clock);
            callback (Clock.now head.clock)
        | None -> ());
        gc_inflight head seq
      end

and deliver_cleanup t ~view i seq =
  match Membership.validate t.membership ~view_id:view with
  | `Stale _ -> t.stale_drops <- t.stale_drops + 1
  | `Current ->
      let node = t.nodes.(i) in
      if node.up && not node.removed then begin
        enter t node;
        gc_inflight node seq;
        (* The head's in-flight entry is cleaned by the tail ack, not the
           cascade. *)
        match Membership.predecessor t.membership i with
        | Some p when p <> head_id t ->
            let at = Clock.now node.clock + hop_delay t in
            trace_hop t node ~at ~seq ~dst:p;
            Sim.schedule t.sim ~at (fun () -> deliver_cleanup t ~view p seq)
        | Some _ | None -> ()
      end

(* --- client interface ----------------------------------------------------- *)

let rec submit_now t ?(on_submit = fun _ -> ()) op ~on_complete =
  if t.cluster_hold then
    (* The head is wedged under a prepared cluster transaction: executing a
       later sequence number now would break the monotone exactly-once
       guard if the cluster op must be re-prepared. Park until commit. *)
    Queue.add (op, on_submit, on_complete) t.deferred
  else begin
    let head = t.nodes.(head_id t) in
    if not head.up then failwith "Async_chain.submit: head is down";
    enter t head;
    let seq = t.next_op_seq in
    t.next_op_seq <- seq + 1;
    on_submit seq;
    let payload = envelope t ~seq op in
    ignore (execute head ~seq op);
    let keys = Engine.last_write_keys head.engine in
    Hashtbl.replace t.pending seq (keys, on_complete);
    (* Hold the head's write locks until the tail acknowledges. *)
    Locks.hold_writes (Engine.locks head.engine) keys;
    (match Membership.successor t.membership head.id with
    | Some _ -> record_inflight head ~seq payload
    | None -> ());
    forward_or_finish t head ~seq payload
  end

and flush_deferred t =
  if not t.cluster_hold then
    match Queue.take_opt t.deferred with
    | None -> ()
    | Some (op, on_submit, on_complete) ->
        submit_now t ~on_submit op ~on_complete;
        flush_deferred t

let submit t ~at ?on_submit op ~on_complete =
  Sim.schedule t.sim ~at (fun () -> submit_now t ?on_submit op ~on_complete)

let read t ~at key ~on_result =
  Sim.schedule t.sim ~at (fun () ->
      let tail = t.nodes.(tail_id t) in
      if tail.up then begin
        enter t tail;
        let v = Kv.get tail.kv key in
        on_result v (Clock.now tail.clock + hop_delay t)
      end)

(* --- failures -------------------------------------------------------------- *)

let redrive_inflight t node =
  List.iter (fun (seq, payload) -> forward_or_finish t node ~seq payload) (inflight_entries node)

(* The rejoin of a rebooted successor reaches predecessor [p]. A write
   [p] forwarded before the reboot (through [sent]) that the successor
   did not execute (past [executed]) may have been lost in transit; [p]'s
   in-flight window still holds it (entries stay until the tail's
   cleanup), so [p] sends exactly those entries again. Later forwards
   reached a replica that was up. The re-sends ride [p]'s forward link
   and are validated like any delivery. *)
let deliver_rejoin t ~view p ~executed ~sent =
  match Membership.validate t.membership ~view_id:view with
  | `Stale _ -> t.stale_drops <- t.stale_drops + 1
  | `Current ->
      let node = t.nodes.(p) in
      if node.up && not node.removed then begin
        enter t node;
        List.iter
          (fun (seq, payload) ->
            if seq > executed && seq <= sent then forward_or_finish t node ~seq payload)
          (inflight_entries node)
      end

(* §5.3 quick reboot: crash and recover in place, without a view change.
   The rejoin handshake tells a node that was fail-stopped while dark that
   it is out (Figure 9's `Removed answer); it then stays dark. *)
let reboot_now ?(downtime_ns = 0) t i =
  let node = t.nodes.(i) in
  if not node.removed then begin
    node.up <- false;
    (* The machine is dark while it reboots; everything it does next
       happens after the downtime, and deliveries queue behind it. *)
    Clock.advance node.clock downtime_ns;
    Engine.set_clock node.engine node.clock;
    ignore (Clock.advance_to node.clock (Sim.now t.sim));
    Engine.crash node.engine;
    Region.crash node.input_region;
    Region.crash node.inflight_region;
    (* §5.3 recovery. A Running intent record at rest can only be a
       cluster-prepared transaction (everything else commits within one
       event); the cluster's recovery hook decides its fate from the
       persistent marker — listed in a valid marker means the cluster
       committed, so the record rolls forward, else back. *)
    let stashed = node.cluster_tx in
    node.cluster_tx <- None;
    let promote txid =
      match t.recovery_hook with
      | Some h -> h ~node:i ~tx_id:txid
      | None -> false
    in
    Engine.recover ~promote_running:promote node.engine;
    (match stashed with
    | Some (seq, tx) when promote (Engine.tx_id tx) ->
        (* The prepared transaction rolled forward: its exec-seq bump (and
           data) committed, so the omniscient applied record must agree. *)
        Hashtbl.replace node.applied seq ()
    | Some _ | None -> ());
    match Membership.rejoin t.membership ~node:i ~believed_view:(view_id t) with
    | `Removed _ -> node.removed <- true
    | `Member (_, pred, succ) ->
        (* A replica without a local backup resolves incomplete transactions
           through a chain neighbour: the predecessor rolls it forward; a
           promoted-but-unbuilt head has no predecessor and rolls back from
           its successor instead (§5.2). Engines with a local backup (the
           original head, or a replica whose promotion completed) recovered
           locally in [Engine.recover]. *)
        (match t.mode with
        | Kamino_chain _ when Engine.kind node.engine = Engine.Intent_only -> (
            match (match pred with Some _ -> pred | None -> succ) with
            | Some p ->
                Engine.resolve_from_peer node.engine
                  ~peer:(Engine.main_region t.nodes.(p).engine)
            | None -> ())
        | Kamino_chain _ | Traditional -> ());
        node.kv <- Kv.reattach node.engine;
        node.input <- Opqueue.open_existing node.input_region;
        node.inflight <- Opqueue.open_existing node.inflight_region;
        (match t.recovery_fault with
        | Drop_inflight_on_reboot ->
            (* Deliberately broken recovery for oracle self-tests: forget
               the un-cleaned in-flight window, so a later chain repair has
               nothing to re-forward and stale-dropped operations are lost
               downstream. *)
            while Opqueue.peek node.inflight <> None do
              Opqueue.drop_peeked node.inflight
            done
        | No_fault -> ());
        node.last_forwarded <- 0;
        Opqueue.iter node.inflight (fun slot ->
            let s = envelope_seq node "inflight" slot in
            if s > node.last_forwarded then node.last_forwarded <- s);
        node.up <- true;
        (* Re-drive: execute anything buffered but unexecuted, and re-forward
           everything not yet cleaned (duplicates are deduplicated downstream
           by the executed-sequence check). *)
        process_input t node;
        redrive_inflight t node;
        match pred with
        | Some p ->
            let view = view_id t
            and executed = executed_seq t i
            and sent = t.nodes.(p).last_forwarded in
            Sim.schedule t.sim
              ~at:(Clock.now node.clock + hop_delay t)
              (fun () -> deliver_rejoin t ~view p ~executed ~sent)
        | None -> ()
  end

let quick_reboot ?(downtime_ns = 0) t ~at i =
  Sim.schedule t.sim ~at (fun () -> reboot_now ~downtime_ns t i)

(* A newly promoted head finishes §5.2's takeover: build a full local
   backup from the current heap and start a backup applier. Runs as its
   own event [promote_ns] after the view change, so crashes can land in
   the promotion window; it no-ops if the replica was promoted already
   (idempotent under reboot) or was itself removed in the meantime. *)
let complete_promotion t i =
  let node = t.nodes.(i) in
  if t.promoting = Some i then t.promoting <- None;
  if (not node.removed) && Engine.kind node.engine = Engine.Intent_only then begin
    enter t node;
    Engine.promote_to_kamino node.engine;
    if Obs.enabled t.obs then
      Obs.emit t.obs ~kind:Obs.k_promote ~track:0 ~ts:(Sim.now t.sim) ~dur:(-1)
        ~a:i ~b:(view_id t) ~c:0
  end

(* After a view change every surviving member re-drives: it executes
   anything still buffered and re-forwards its un-cleaned in-flight window
   to its {e new} successor. Entries stay in flight until the tail's
   cleanup acknowledgment, so the union of the survivors' windows covers
   every operation the old view had not fully acknowledged — which is what
   makes the repair converge despite stale-view messages being dropped. *)
let repair_node t i =
  let node = t.nodes.(i) in
  if node.up && (not node.removed) && List.mem i (members t) then begin
    enter t node;
    process_input t node;
    redrive_inflight t node
  end

let fail_stop_now t i =
  let node = t.nodes.(i) in
  if node.removed then ()
  else if List.length (members t) <= 1 then
    invalid_arg "Async_chain.fail_stop: cannot remove the last member"
  else begin
    let was_head = head_id t = i in
    node.up <- false;
    node.removed <- true;
    ignore (Membership.remove t.membership i);
    (if Obs.enabled t.obs then
       Obs.emit t.obs ~kind:Obs.k_view_change ~track:0 ~ts:(Sim.now t.sim)
         ~dur:(-1) ~a:(view_id t) ~b:i ~c:0);
    (* §5.2 head failure: the next replica becomes head. Under Kamino-Tx it
       must build a local backup before it can recover alone; the build is
       scheduled as a separate event so the window is crashable. *)
    (if was_head && t.mode <> Traditional then
       let nh = head_id t in
       if Engine.kind t.nodes.(nh).engine = Engine.Intent_only then begin
         t.promoting <- Some nh;
         Sim.schedule_after t.sim ~delay:t.promote_ns (fun () -> complete_promotion t nh)
       end);
    (* Chain repair runs with the view change, before the new view carries
       any new client traffic: in chain replication the chain is wedged
       during reconfiguration. The ordering matters — a survivor's
       re-forwards must get onto its FIFO link ahead of any post-change
       forward, or a downstream replica would see (and skip past) a
       sequence gap left by the stale-view drops. Deliveries still take
       their hop delays; only the decision to re-send is atomic with the
       view change. *)
    List.iter (fun m -> repair_node t m) (members t);
    (* The cluster coordinator re-drives any cross-chain transaction that
       was parked on the removed head — after the repair, so its re-sends
       queue behind the survivors' re-forwards. *)
    match t.on_view_change with Some h -> h () | None -> ()
  end

let fail_stop t ~at i = Sim.schedule t.sim ~at (fun () -> fail_stop_now t i)

(* A message stamped with an out-of-date view id, delivered to a live
   member: the receiver's view validation must drop it. The payload is a
   write that was never sequenced by the head, so if validation were ever
   broken the replica would execute it and the chaos oracles would see the
   divergence. *)
let inject_stale_probe_now t i =
  let node = t.nodes.(i) in
  if node.up && not node.removed then begin
    let stale_view = view_id t - 1 in
    let payload =
      envelope t ~seq:(t.next_op_seq + 1_000_000) (Op.Put (0, "stale-probe"))
    in
    Sim.schedule t.sim
      ~at:(Sim.now t.sim + t.hop_ns)
      (fun () -> deliver_forward t ~view:stale_view i payload)
  end

let inject_stale_probe t ~at i =
  Sim.schedule t.sim ~at (fun () -> inject_stale_probe_now t i)

(* --- cluster composition (2PC over chain heads) ---------------------------- *)

let set_view_change_hook t h = t.on_view_change <- h

let set_recovery_hook t h = t.recovery_hook <- h

let cluster_held t = t.cluster_hold

let deferred_count t = Queue.length t.deferred

(* Only Kamino engines implement [prepare]; a freshly promoted head is
   [Intent_only] until its backup build completes, so the coordinator must
   retry after the promotion window. *)
let head_can_prepare t =
  t.mode <> Traditional
  && Engine.kind t.nodes.(head_id t).engine <> Engine.Intent_only

let cluster_prepare ?seq t op =
  let head = t.nodes.(head_id t) in
  if not head.up then failwith "Async_chain.cluster_prepare: head is down";
  enter t head;
  let seq =
    match seq with
    | Some s ->
        (* Re-prepare after the original prepared head died: the sequence
           number is the transaction's chain-wide identity (marker entry,
           pending-ack slot), so it must survive the re-prepare. The old
           head never forwarded it, and the wedge kept later sequence
           numbers from executing, so the exactly-once guard still has
           headroom for it. *)
        assert (s < t.next_op_seq);
        s
    | None ->
        let s = t.next_op_seq in
        t.next_op_seq <- s + 1;
        s
  in
  t.cluster_hold <- true;
  let tx = Engine.begin_tx head.engine in
  Op.apply_tx tx op head.kv;
  Engine.add tx head.exec_seq_obj;
  Engine.write_int tx head.exec_seq_obj 0 seq;
  Engine.prepare tx;
  head.cluster_tx <- Some (seq, tx);
  (seq, head.id, Engine.tx_id tx)

let cluster_prepared_live t ~seq =
  match t.nodes.(head_id t).cluster_tx with
  | Some (s, _) -> s = seq
  | None -> false

let cluster_commit ?(on_ack = fun _ -> ()) t ~seq op =
  let head = t.nodes.(head_id t) in
  if not head.up then failwith "Async_chain.cluster_commit: head is down";
  enter t head;
  let payload = envelope t ~seq op in
  let committed_now =
    match head.cluster_tx with
    | Some (s, tx) when s = seq ->
        Engine.commit_prepared tx;
        head.cluster_tx <- None;
        Hashtbl.replace head.applied seq ();
        true
    | Some _ | None ->
        (* The prepared transaction is gone — the head rebooted (recovery
           already rolled it forward under the valid marker) or the chain
           promoted a new head that never saw it. Execute is exactly-once
           guarded, so this is an idempotent re-drive. *)
        let already = Engine.peek_int head.engine head.exec_seq_obj 0 in
        if seq > already then begin
          ignore (execute head ~seq op);
          true
        end
        else false
  in
  let keys = if committed_now then Engine.last_write_keys head.engine else [] in
  Hashtbl.replace t.pending seq (keys, on_ack);
  Locks.hold_writes (Engine.locks head.engine) keys;
  (match Membership.successor t.membership head.id with
  | Some _ -> record_inflight head ~seq payload
  | None -> ());
  t.cluster_hold <- false;
  forward_or_finish t head ~seq payload;
  flush_deferred t

let cluster_redrive t ~seq op =
  let head = t.nodes.(head_id t) in
  if head.up && not head.removed then begin
    enter t head;
    let payload = envelope t ~seq op in
    ignore (execute head ~seq op);
    (match Membership.successor t.membership head.id with
    | Some _ -> record_inflight head ~seq payload
    | None -> ());
    forward_or_finish t head ~seq payload
  end

let run t = Sim.run t.sim

(* --- verification ----------------------------------------------------------- *)

let contents kv =
  let acc = ref [] in
  Kv.iter kv (fun k v -> acc := (k, v) :: !acc);
  List.rev !acc

let replicas_consistent t =
  match members t with
  | [] -> Ok ()
  | h :: rest ->
      let reference = contents t.nodes.(h).kv in
      let rec check = function
        | [] -> Ok ()
        | m :: ms ->
            if contents t.nodes.(m).kv <> reference then
              Error (Printf.sprintf "replica %d diverges from the head" m)
            else check ms
      in
      check rest
