(* One transaction model for the crash oracles, in three parts:

   - the engine-kind table: the six kinds of the crash coverage, and how
     each is built (a chain head is promoted after its setup);
   - the model: a committed map plus the open transaction's pending
     writes. A commit applies them; an abort or a crash drops them. It is
     polymorphic in key and value, so the object map
     ([ptr -> size, stamp]) and a B+Tree's bindings are the same code,
     and [show] renders either for {!Fence_sweep.observe};
   - the object workload: seeded random transactions driven against an
     engine and the model in lockstep, crashing at the points the
     pipeline makes delicate, with one [check] that every committed
     object is intact.

   Shared by the crash, crash-matrix, tree-transaction and fs suites. *)

module Rng = Kamino_sim.Rng
module Heap = Kamino_heap.Heap
module Engine = Kamino_core.Engine
module Applier = Kamino_core.Applier
module Backup = Kamino_core.Backup

(* --- the engine-kind table ---------------------------------------------- *)

type spec = Plain of Engine.kind | Chain_head

(* [(name, spec, atomic)]. [atomic] marks the kinds that roll
   mid-transaction crashes back; [No_logging] is Figure 1's motivation and
   only survives crashes at operation boundaries. *)
let kinds =
  [
    ("no-logging", Plain Engine.No_logging, false);
    ("undo", Plain Engine.Undo_logging, true);
    ("cow", Plain Engine.Cow, true);
    ("kamino-simple", Plain Engine.Kamino_simple, true);
    ( "kamino-dynamic",
      Plain (Engine.Kamino_dynamic { alpha = 0.3; policy = Backup.Lru_policy }),
      true );
    ("chain-head", Chain_head, true);
  ]

(* Builds an engine and runs [init] on it (fs format, tree create, a
   little history). A chain head runs [init] as an [Intent_only] replica
   and is then promoted to a Kamino-simple head (fresh full backup and
   applier), which is how §5.2 creates one; from then on it crashes and
   recovers like any other head. *)
let create spec ~config ~seed ~init =
  let kind = match spec with Plain kind -> kind | Chain_head -> Engine.Intent_only in
  let e = Engine.create ~config ~kind ~seed () in
  let x = init e in
  (match spec with Chain_head -> Engine.promote_to_kamino e | Plain _ -> ());
  (e, x)

(* --- the model ---------------------------------------------------------- *)

type ('k, 'v) t = {
  committed : ('k, 'v) Hashtbl.t;
  mutable pending : ('k * 'v option) list;  (** the open transaction's writes, newest first *)
  mutable open_tx : bool;
}

let model () = { committed = Hashtbl.create 64; pending = []; open_tx = false }

let begin_tx m =
  if m.open_tx then invalid_arg "Tx_model.begin_tx: a transaction is open";
  m.open_tx <- true

let write m k v =
  if not m.open_tx then invalid_arg "Tx_model: no open transaction";
  m.pending <- (k, v) :: m.pending

let put m k v = write m k (Some v)

let remove m k = write m k None

let drop m =
  m.pending <- [];
  m.open_tx <- false

(* Applies the pending writes in order; [record k v] sees each of them
   ([None] for a removal). *)
let commit ?(record = fun _ _ -> ()) m =
  List.iter
    (fun (k, v) ->
      (match v with
      | Some v -> Hashtbl.replace m.committed k v
      | None -> Hashtbl.remove m.committed k);
      record k v)
    (List.rev m.pending);
  drop m

let abort = drop

(* Whatever did not commit is gone. *)
let crash = drop

let find m k = Hashtbl.find_opt m.committed k

let mem m k = Hashtbl.mem m.committed k

(* What the open transaction last wrote to [k]: [None] if it has not
   touched it, [Some None] if it removed it. *)
let pending m k = List.assoc_opt k m.pending

let bindings m =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) m.committed []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* A committed map read off the system under test. *)
let of_iter iter =
  let m = model () in
  iter (Hashtbl.replace m.committed);
  m

let show key value m =
  String.concat "" (List.map (fun (k, v) -> key k ^ "=" ^ value v ^ ";") (bindings m))

(* --- the object workload ------------------------------------------------ *)

(* Object pointer -> (size, stamp): every 8-byte word of a committed
   object carries its stamp. *)
type objects = (Heap.ptr, int * int64) t

let show_object (size, stamp) = Printf.sprintf "%d:%Ld" size stamp

let show_objects : objects -> string = show string_of_int show_object

let stamp_object tx p size stamp =
  for w = 0 to (size / 8) - 1 do
    Engine.write_int64 tx p (w * 8) stamp
  done

(* Renders the objects among [ps] ([(ptr, size)]) that [e] holds
   allocated as [show_objects] would, each with the stamp all its words
   carry. A torn object renders as [p=torn;], which matches no model
   state, so {!Fence_sweep} reports it with its crash point. *)
let observe_objects e ps =
  List.sort compare ps
  |> List.filter (fun (p, _) -> Heap.is_allocated (Engine.heap e) p)
  |> List.map (fun (p, size) ->
         let stamp = Engine.peek_int64 e p 0 in
         let torn =
           List.exists
             (fun w -> Engine.peek_int64 e p (w * 8) <> stamp)
             (List.init (size / 8) Fun.id)
         in
         Printf.sprintf "%d=%s;" p (if torn then "torn" else show_object (size, stamp)))
  |> String.concat ""

(* The engine half of a crash point's oracle: the heap's invariants hold
   and the backup matches the main copy. *)
let check_engine e here =
  (match Heap.validate (Engine.heap e) with
  | Ok () -> ()
  | Error err -> Alcotest.failf "%s: heap invalid: %s" here err);
  match Engine.verify_backup e with
  | Ok () -> ()
  | Error err -> Alcotest.failf "%s: backup: %s" here err

(* Every word of every committed object, and the heap's invariants. *)
let check e (m : objects) ctx =
  Hashtbl.iter
    (fun p (size, stamp) ->
      if not (Heap.is_allocated (Engine.heap e) p) then
        Alcotest.failf "%s: committed object %d lost" ctx p;
      for w = 0 to (size / 8) - 1 do
        let v = Engine.peek_int64 e p (w * 8) in
        if v <> stamp then
          Alcotest.failf "%s: object %d word %d is %Ld, expected %Ld" ctx p w v stamp
      done)
    m.committed;
  match Heap.validate (Engine.heap e) with
  | Ok () -> ()
  | Error err -> Alcotest.failf "%s: heap invalid: %s" ctx err

(* Opens a transaction on [e] and on [m] and runs one to three random
   operations in both: allocate and stamp, free an object this
   transaction has not touched, or restamp one it has not freed. A
   restamp declares the whole object half the time, and otherwise
   field by field (adjacent intents, which the intent log merges) in at
   most 32 fields of at least 8 bytes, the stamp word. No budget needs
   the bound: merged field intents take one log entry, and a
   kamino-dynamic [add_field] declares the whole object. It stays so
   the seeded workloads stay as they are. *)
let random_tx rng e (m : objects) =
  let tx = Engine.begin_tx e in
  begin_tx m;
  let keys = List.map fst (bindings m) in
  for _ = 1 to 1 + Rng.int rng 3 do
    match Rng.int rng 10 with
    | 0 | 1 | 2 ->
        let size = [| 32; 64; 256; 1024 |].(Rng.int rng 4) in
        let p = Engine.alloc tx size in
        let stamp = Rng.int64 rng in
        stamp_object tx p size stamp;
        put m p (size, stamp)
    | 3 when keys <> [] ->
        let p = List.nth keys (Rng.int rng (List.length keys)) in
        if pending m p = None then begin
          Engine.free tx p;
          remove m p
        end
    | _ when keys <> [] ->
        let p = List.nth keys (Rng.int rng (List.length keys)) in
        if pending m p <> Some None then begin
          let size, _ = Option.get (find m p) in
          let stamp = Rng.int64 rng in
          if Rng.bool rng then begin
            let width = max 8 (size / 32) in
            for f = 0 to (size / width) - 1 do
              Engine.add_field tx p (f * width) width
            done
          end
          else Engine.add tx p;
          stamp_object tx p size stamp;
          put m p (size, stamp)
        end
    | _ -> ()
  done;
  tx

(* Three committed objects the model does not track, so a workload never
   starts from an empty heap, and a chain head has history to promote. *)
let history e =
  for i = 1 to 3 do
    Engine.with_tx e (fun tx ->
        let p = Engine.alloc tx 64 in
        Engine.write_int64 tx p 0 (Int64.of_int i))
  done

(* --- snapshot-read dimension ---------------------------------------------

   Interleaved with the crash workload, snapshot reads get their own
   serial history: per object, [(task_id, Some (size, stamp))] for each
   committed (re)stamp and [(task_id, None)] for a free — newest first,
   task ids from [Applier.last_enqueued] at commit time. A snapshot read
   of an object must then show, in {e every} word, exactly the stamp of
   the newest entry at or below the watermark — one uniform committed
   stamp, so any torn value (words from two different commits, or from
   an uncommitted write) fails. Entries above the watermark, objects not
   yet allocated at the watermark, and freed-at-the-watermark objects are
   skipped: their backup bytes are legitimately indeterminate.

   Recovery resets the dimension: a fresh applier restarts the watermark
   at (0, 0), and the recovered backup holds the whole durable prefix, so
   every live object's history collapses to [(0, current committed
   stamp)] — which the post-recovery sweep then checks against the
   backup, crashes mid-applier-batch included. Kinds without an applier
   have no watermark and skip the dimension. *)

type shist = (Heap.ptr, (int * (int * int64) option) list) Hashtbl.t

let task_now e =
  match Engine.applier e with Some a -> Applier.last_enqueued a | None -> 0

let reset_shist (sh : shist) (m : objects) =
  Hashtbl.reset sh;
  Hashtbl.iter (fun p v -> Hashtbl.replace sh p [ (0, Some v) ]) m.committed

(* Sweep every tracked object against the backup image at the current
   watermark. *)
let snapshot_sweep e (sh : shist) last_wm ctx =
  match Engine.snapshot_watermark e with
  | None -> ()
  | Some (wm_id, wm_ns) ->
      let pa, pns = !last_wm in
      if wm_id < pa || wm_ns < pns then
        Alcotest.failf "%s: watermark regressed (%d,%d) -> (%d,%d)" ctx pa pns wm_id wm_ns;
      last_wm := (wm_id, wm_ns);
      let enq = task_now e in
      if wm_id > enq then
        Alcotest.failf "%s: watermark %d beyond last durable commit %d" ctx wm_id enq;
      Hashtbl.iter
        (fun p entries ->
          let rec at = function
            | [] -> None
            | (task, v) :: rest -> if task <= wm_id then Some v else at rest
          in
          match at entries with
          | Some (Some (size, stamp)) -> (
              let words =
                Engine.read_tx e (fun snap ->
                    Some
                      (List.init (size / 8) (fun w -> Engine.snapshot_read_int64 snap p (w * 8))))
              in
              match words with
              | None -> ()
              | Some ws ->
                  List.iteri
                    (fun w v ->
                      if v <> stamp then
                        Alcotest.failf
                          "%s: torn snapshot: object %d word %d is %Ld, watermark %d says %Ld" ctx
                          p w v wm_id stamp)
                    ws)
          | Some None | None -> ())
        sh

(* One seeded workload of [rounds] random transactions on a [spec]
   engine, crashing mid-transaction, before propagation, mid-propagation
   (one of two queued write sets applied), after an abort and twice in a
   row, and at every fence of each recovery in turn; after each recovery
   the committed objects must be intact and the snapshot dimension
   holds. At the end the backup drains and must match. *)
let run_workload ~spec ~config ~seed ~rounds ctx =
  let rng = Rng.create seed in
  let e, () = create spec ~config ~seed:(seed + 1000) ~init:history in
  let m : objects = model () in
  let sh : shist = Hashtbl.create 64 in
  let last_wm = ref (-1, -1) in
  let commit_tx tx =
    Engine.commit tx;
    let task = task_now e in
    commit m ~record:(fun p v ->
        Hashtbl.replace sh p ((task, v) :: Option.value ~default:[] (Hashtbl.find_opt sh p)))
  in
  (* Crash, then recover with crashes inside recovery itself (each restart
     one fence further, {!Fence_sweep.recover_chained}), then re-baseline
     the snapshot dimension: fresh applier, watermark (0, 0), backup = the
     whole durable prefix. The immediate sweep is the post-recovery
     oracle — no torn values even when the crash landed mid-applier-batch
     or mid-recovery. *)
  let crash_recover ctx =
    Engine.crash e;
    crash m;
    ignore
      (Fence_sweep.recover_chained
         ~crash:(fun () -> Engine.crash e)
         ~recover:(fun () -> Engine.recover e));
    reset_shist sh m;
    last_wm := (-1, -1);
    (match Engine.snapshot_watermark e with
    | Some ((a, _) as wm) ->
        if a <> 0 then Alcotest.failf "%s: post-recovery watermark %d <> 0 (fresh applier)" ctx a;
        if wm > (task_now e, max_int) then
          Alcotest.failf "%s: post-recovery watermark beyond durable commits" ctx
    | None -> ());
    snapshot_sweep e sh last_wm (ctx ^ " (post-recovery snapshot)")
  in
  for round = 1 to rounds do
    let ctx = Printf.sprintf "%s seed=%d round=%d" ctx seed round in
    (match Rng.int rng 12 with
    | 0 ->
        (* crash mid-transaction: intents (possibly merged in place) may be
           unflushed, in-place writes may be torn *)
        ignore (random_tx rng e m);
        crash_recover ctx;
        check e m (ctx ^ " (mid-tx crash)")
    | 1 ->
        (* crash mid-propagation: the write set is committed and queued but
           nothing has been applied *)
        commit_tx (random_tx rng e m);
        crash_recover ctx;
        check e m (ctx ^ " (pre-propagation crash)")
    | 2 ->
        (* crash mid-propagation with a partially retired queue: several
           committed write sets, one applied, the rest still pending *)
        commit_tx (random_tx rng e m);
        commit_tx (random_tx rng e m);
        Option.iter (fun a -> ignore (Applier.drain_one a)) (Engine.applier e);
        snapshot_sweep e sh last_wm (ctx ^ " (mid-batch snapshot)");
        crash_recover ctx;
        check e m (ctx ^ " (mid-propagation crash)")
    | 3 ->
        Engine.abort (random_tx rng e m);
        abort m;
        check e m (ctx ^ " (abort)")
    | 4 ->
        Engine.abort (random_tx rng e m);
        abort m;
        crash_recover ctx;
        check e m (ctx ^ " (post-abort crash)")
    | 5 ->
        commit_tx (random_tx rng e m);
        crash_recover ctx;
        crash_recover ctx;
        check e m (ctx ^ " (double crash)")
    | _ -> commit_tx (random_tx rng e m));
    snapshot_sweep e sh last_wm ctx
  done;
  Engine.drain_backup e;
  check e m (Printf.sprintf "%s seed=%d final" ctx seed);
  snapshot_sweep e sh last_wm (Printf.sprintf "%s seed=%d final snapshot" ctx seed);
  check_engine e (Printf.sprintf "%s seed=%d final" ctx seed)
