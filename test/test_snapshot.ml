(* Prefix-consistency oracle for the snapshot-read path.

   The claim under test: a snapshot read ([Kv.snapshot_get] over
   [Engine.read_tx]) always observes the store's state at some
   watermark-consistent prefix of the committed serial history — never a
   torn value, never an uncommitted or aborted write, never a committed
   write the watermark has not yet covered.

   The oracle records the serial history of committed writes per key,
   each stamped with the applier task id its transaction enqueued
   (0 for kinds without an applier). Per snapshot read:

   - snapshot hit (detected by the [snapshot.hits] counter moving):
     the value must equal the newest history entry whose task id is
     <= the watermark captured just before the read — the read itself
     never syncs the applier, so that capture is exact;
   - fallback: the locked path ran, so the value must be the latest
     committed one;
   - the published watermark (both components) must be monotone over the
     engine's lifetime.

   Every engine kind runs the same seeded workload via the
   variant-oracle harness shape (kind table x seeds, mixed
   puts / deletes / aborts / drains). Kinds without a full backup
   (no-logging, undo, cow, intent-only, kamino-dynamic) must take the
   fallback path on every read; kamino-simple must serve genuine hits
   once the store's creating transaction has propagated. A second suite
   sweeps propagation schedules chaos-style: single-task drains
   ([Applier.drain_one]) interleaved at seed-driven points, so reads
   observe watermarks strictly inside an enqueue batch. *)

module Rng = Kamino_sim.Rng
module Engine = Kamino_core.Engine
module Applier = Kamino_core.Applier
module Backup = Kamino_core.Backup
module Kv = Kamino_kv.Kv

let config =
  {
    Engine.default_config with
    Engine.heap_bytes = 1 lsl 20;
    (* Few slots: commits hit intent-log pressure and force partial
       drains, so watermarks advance at interesting (mid-history)
       points without explicit scheduling. *)
    log_slots = 8;
    data_log_bytes = 1 lsl 18;
  }

let kinds =
  [
    ("no-logging", Engine.No_logging, false);
    ("undo-logging", Engine.Undo_logging, true);
    ("cow", Engine.Cow, true);
    ("kamino-simple", Engine.Kamino_simple, true);
    ( "kamino-dynamic",
      Engine.Kamino_dynamic { alpha = 0.3; policy = Backup.Lru_policy },
      true );
    ("intent-only", Engine.Intent_only, false);
  ]

let seeds = [ 1; 2; 3 ]

let nkeys = 24

(* Serial history per key, newest first: [(task_id, value)] where
   [value = None] records a delete. [committed] is the flat latest state. *)
type oracle = {
  hist : (int, (int * string option) list) Hashtbl.t;
  committed : (int, string option) Hashtbl.t;
  mutable last_wm : int * int;
  mutable hits_seen : int;
  mutable fallbacks_seen : int;
}

let make_oracle () =
  {
    hist = Hashtbl.create 64;
    committed = Hashtbl.create 64;
    last_wm = (-1, -1);
    hits_seen = 0;
    fallbacks_seen = 0;
  }

let task_now e =
  match Engine.applier e with Some a -> Applier.last_enqueued a | None -> 0

let record o e key v =
  let task = task_now e in
  Hashtbl.replace o.committed key v;
  Hashtbl.replace o.hist key
    ((task, v) :: Option.value ~default:[] (Hashtbl.find_opt o.hist key))

let latest o key =
  match Hashtbl.find_opt o.committed key with Some v -> v | None -> None

(* Newest history entry with task id <= [wm_id]; [None] when the key did
   not exist at that prefix. *)
let value_at_prefix o key wm_id =
  let rec go = function
    | [] -> None
    | (task, v) :: rest -> if task <= wm_id then v else go rest
  in
  go (Option.value ~default:[] (Hashtbl.find_opt o.hist key))

let pp_opt = function None -> "<absent>" | Some s -> Printf.sprintf "%S" s

let check_monotone cell o e =
  match Engine.snapshot_watermark e with
  | None -> ()
  | Some (a, ns) ->
      let pa, pns = o.last_wm in
      if a < pa || ns < pns then
        Alcotest.failf "%s: watermark regressed (%d,%d) -> (%d,%d)" cell pa pns
          a ns;
      o.last_wm <- (a, ns)

(* One oracle-checked snapshot read. *)
let check_read cell o e kv key =
  let m0 = Engine.metrics e in
  let wm = Engine.snapshot_watermark e in
  check_monotone cell o e;
  let got = Kv.snapshot_get kv key in
  let m1 = Engine.metrics e in
  let d_hits = m1.Engine.snapshot_hits - m0.Engine.snapshot_hits in
  let d_falls = m1.Engine.snapshot_fallbacks - m0.Engine.snapshot_fallbacks in
  if d_hits + d_falls < 1 then
    Alcotest.failf "%s: snapshot_get moved neither counter" cell;
  check_monotone cell o e;
  if d_hits > 0 then begin
    o.hits_seen <- o.hits_seen + 1;
    let wm_id =
      match wm with
      | Some (a, _) -> a
      | None -> Alcotest.failf "%s: hit without a published watermark" cell
    in
    let want = value_at_prefix o key wm_id in
    if got <> want then
      Alcotest.failf "%s: key %d at watermark %d: got %s, prefix says %s" cell
        key wm_id (pp_opt got) (pp_opt want)
  end
  else begin
    o.fallbacks_seen <- o.fallbacks_seen + 1;
    let want = latest o key in
    if got <> want then
      Alcotest.failf "%s: key %d fallback: got %s, committed says %s" cell key
        (pp_opt got) (pp_opt want)
  end

(* The workload: the variant-oracle mix reshaped for the kv layer, with
   oracle-checked snapshot reads interleaved. [drain_one] rounds advance
   the watermark by a single task — mid-batch prefixes. *)
let run_workload cell kind can_abort seed ~rounds =
  let e = Engine.create ~config ~kind ~seed () in
  let kv = Kv.create e ~value_size:64 ~node_size:256 in
  let o = make_oracle () in
  let rng = Rng.create (seed * 7919) in
  for round = 1 to rounds do
    let key = Rng.int rng nkeys in
    match Rng.int rng 12 with
    | 0 | 1 | 2 | 3 ->
        let v = Printf.sprintf "k%d.r%d.%d" key round (Rng.int rng 1_000_000) in
        Kv.put kv key v;
        record o e key (Some v)
    | 4 -> if Kv.delete kv key then record o e key None
    | 5 when can_abort ->
        (* Aborted writes must never surface in any snapshot. *)
        Kv.put_aborted kv key (Printf.sprintf "aborted.r%d" round)
    | 6 -> Engine.drain_backup e
    | 7 -> (
        match Engine.applier e with
        | Some a -> ignore (Applier.drain_one a)
        | None -> ())
    | _ -> check_read cell o e kv key
  done;
  (* Fully drained, the watermark covers the whole history: every key's
     snapshot value must equal the latest committed one. *)
  Engine.drain_backup e;
  for key = 0 to nkeys - 1 do
    check_read cell o e kv key;
    let got = Kv.snapshot_get kv key in
    if got <> latest o key then
      Alcotest.failf "%s: key %d after full drain: got %s, committed says %s"
        cell key (pp_opt got) (pp_opt (latest o key))
  done;
  (e, o)

let serves_snapshots kind =
  match kind with
  | Engine.Kamino_simple -> true
  | Engine.No_logging | Engine.Undo_logging | Engine.Cow
  | Engine.Kamino_dynamic _ | Engine.Intent_only -> false

let test_oracle (name, kind, can_abort) () =
  List.iter
    (fun seed ->
      let cell = Printf.sprintf "%s/seed=%d" name seed in
      let e, o = run_workload cell kind can_abort seed ~rounds:400 in
      if serves_snapshots kind then begin
        if o.hits_seen = 0 then
          Alcotest.failf "%s: full-backup kind never served a snapshot" cell;
        (match Engine.snapshot_watermark e with
        | Some _ -> ()
        | None -> Alcotest.failf "%s: no watermark on a full-backup kind" cell)
      end
      else begin
        if o.hits_seen > 0 then
          Alcotest.failf "%s: kind without a full backup served %d hits" cell
            o.hits_seen;
        if o.fallbacks_seen = 0 then
          Alcotest.failf "%s: no fallbacks recorded" cell;
        match Engine.snapshot_watermark e with
        | None -> ()
        | Some _ ->
            Alcotest.failf "%s: watermark published without a full backup" cell
      end)
    seeds

(* Chaos-style sweep over propagation schedules: for each seed, replay
   the same committed history but vary where single-task drains land
   (every k-th commit for several k), checking a snapshot read of every
   key at each schedule point. The oracle must hold at every
   intermediate watermark, not just the ones a random mix happens to
   visit. *)
let test_schedule_sweep () =
  List.iter
    (fun seed ->
      List.iter
        (fun stride ->
          let cell = Printf.sprintf "sweep/seed=%d/stride=%d" seed stride in
          let e = Engine.create ~config ~kind:Engine.Kamino_simple ~seed () in
          let kv = Kv.create e ~value_size:64 ~node_size:256 in
          let o = make_oracle () in
          let rng = Rng.create ((seed * 911) + stride) in
          let a =
            match Engine.applier e with Some a -> a | None -> assert false
          in
          for round = 1 to 120 do
            let key = Rng.int rng nkeys in
            let v = Printf.sprintf "s%d.%d" round (Rng.int rng 1_000_000) in
            Kv.put kv key v;
            record o e key (Some v);
            if round mod stride = 0 then ignore (Applier.drain_one a);
            (* Probe a few keys at this exact schedule point. *)
            for _ = 1 to 3 do
              check_read cell o e kv (Rng.int rng nkeys)
            done
          done;
          Engine.drain_backup e;
          for key = 0 to nkeys - 1 do
            check_read cell o e kv key
          done;
          if o.hits_seen = 0 then
            Alcotest.failf "%s: sweep served no hits" cell)
        [ 1; 2; 5; 9 ])
    seeds

(* Readers must never join the dependent-wait class: a snapshot read on a
   dedicated reader clock advances neither the writer's clock nor any
   write-side NVM counter, even when the object it reads has a
   committed-but-unapplied update pending (where the locked path would
   block for backup catch-up). *)
let test_reader_never_waits () =
  let e = Engine.create ~config ~kind:Engine.Kamino_simple ~seed:42 () in
  let kv = Kv.create e ~value_size:64 ~node_size:256 in
  Kv.put kv 7 "before";
  Engine.drain_backup e;
  (* Leave an update pending in the applier queue: the write lock is
     scheduled to release at the applier's finish time, so a locked
     reader would wait. *)
  Kv.put kv 7 "after";
  let writer_clk = Engine.clock e in
  let w0 = Kamino_sim.Clock.now writer_clk in
  let c0 = Engine.main_counters e in
  let reader = Kamino_sim.Clock.create_at w0 in
  let got = Kv.snapshot_get ~clock:reader kv 7 in
  Alcotest.(check (option string))
    "snapshot sees the watermark-consistent (stale) value" (Some "before") got;
  Alcotest.(check int)
    "writer clock untouched" w0
    (Kamino_sim.Clock.now writer_clk);
  let c1 = Engine.main_counters e in
  let module R = Kamino_nvm.Region in
  Alcotest.(check int) "no stores" c0.R.stores c1.R.stores;
  Alcotest.(check int) "no flushes" c0.R.lines_flushed c1.R.lines_flushed;
  Alcotest.(check int) "no fences" c0.R.fences c1.R.fences;
  Alcotest.(check int) "no copies" c0.R.bytes_copied c1.R.bytes_copied;
  if Kamino_sim.Clock.now reader <= w0 then
    Alcotest.fail "reader clock should have been charged for its loads";
  (* And the pending update becomes visible once propagated. *)
  Engine.drain_backup e;
  Alcotest.(check (option string))
    "post-drain snapshot catches up" (Some "after") (Kv.snapshot_get kv 7)

(* A promoted chain head gains a full backup and must start serving
   snapshots from the durable prefix it was promoted with. *)
let test_promoted_head_serves () =
  let e = Engine.create ~config ~kind:Engine.Intent_only ~seed:5 () in
  let kv = Kv.create e ~value_size:64 ~node_size:256 in
  Kv.put kv 1 "one";
  Kv.put kv 2 "two";
  Alcotest.(check (option (pair int int)))
    "replica publishes no watermark" None
    (Engine.snapshot_watermark e);
  let m0 = Engine.metrics e in
  ignore (Kv.snapshot_get kv 1);
  Alcotest.(check int)
    "replica read falls back"
    (m0.Engine.snapshot_fallbacks + 1)
    (Engine.metrics e).Engine.snapshot_fallbacks;
  Engine.promote_to_kamino e;
  Alcotest.(check (option (pair int int)))
    "fresh head watermark is (0,0)" (Some (0, 0))
    (Engine.snapshot_watermark e);
  let m1 = Engine.metrics e in
  Alcotest.(check (option string))
    "head serves the promoted prefix" (Some "two") (Kv.snapshot_get kv 2);
  Alcotest.(check int)
    "served as a hit"
    (m1.Engine.snapshot_hits + 1)
    (Engine.metrics e).Engine.snapshot_hits;
  Kv.put kv 2 "two'";
  Alcotest.(check (option string))
    "pending update invisible until propagation" (Some "two")
    (Kv.snapshot_get kv 2);
  Engine.drain_backup e;
  Alcotest.(check (option string))
    "visible after drain" (Some "two'") (Kv.snapshot_get kv 2)

(* A value length word outside [0, value_size] in the backup image: the
   snapshot read declines instead of loading past the record, and the
   locked fallback reads the main heap. With the same word in both
   images, the fallback refuses it too. *)
let test_corrupt_length_declines () =
  List.iter
    (fun bad ->
      let e = Engine.create ~config ~kind:Engine.Kamino_simple ~seed:5 () in
      let kv = Kv.create e ~value_size:64 ~node_size:256 in
      Kv.put kv 1 "one";
      Kv.put kv 2 "two";
      Engine.drain_backup e;
      let vptr = Option.get (Kv.value_ptr kv 1) in
      Engine.crash e;
      let corrupt r =
        Kamino_nvm.Region.write_int r vptr bad;
        Kamino_nvm.Region.persist r vptr 8
      in
      corrupt (Option.get (Backup.full_region (Option.get (Engine.backup e))));
      Engine.recover e;
      let kv = Kv.reattach e in
      let fallbacks () = (Engine.metrics e).Engine.snapshot_fallbacks in
      let f0 = fallbacks () in
      Alcotest.(check (option string))
        (Printf.sprintf "length %d: the fallback reads the main heap" bad)
        (Some "one") (Kv.snapshot_get kv 1);
      Alcotest.(check int) "declined" (f0 + 1) (fallbacks ());
      Alcotest.(check (option string)) "the neighbour is a hit" (Some "two")
        (Kv.snapshot_get kv 2);
      Alcotest.(check int) "no further fallback" (f0 + 1) (fallbacks ());
      corrupt (Engine.main_region e);
      match Kv.snapshot_get kv 1 with
      | v -> Alcotest.failf "length %d in both images: read %s" bad (pp_opt v)
      | exception Kamino_nvm.Region.Corrupt { what; _ } ->
          Alcotest.(check string) "the fallback refuses it"
            (Printf.sprintf "length %d outside [0, 64]" bad) what;
          Alcotest.(check int) "declined again" (f0 + 2) (fallbacks ()))
    [ 65; -1 ]

let () =
  let oracle_cases =
    List.map
      (fun ((name, _, _) as k) -> Alcotest.test_case name `Quick (test_oracle k))
      kinds
  in
  Alcotest.run "snapshot"
    [
      ("prefix-oracle", oracle_cases);
      ( "schedules",
        [ Alcotest.test_case "drain-schedule sweep" `Quick test_schedule_sweep ]
      );
      ( "isolation",
        [
          Alcotest.test_case "reader never waits" `Quick test_reader_never_waits;
          Alcotest.test_case "promoted head serves" `Quick
            test_promoted_head_serves;
          Alcotest.test_case "a corrupt length word declines" `Quick
            test_corrupt_length_declines;
        ] );
    ]
