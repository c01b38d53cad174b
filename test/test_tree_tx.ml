(* Model-based crash test for transactional tree operations at scale-ish
   depth. A B+Tree with tiny nodes (node_size 96 -> 6 keys per node) is
   preloaded via the bulk-load path until its height is at least 4, then
   QCheck-generated insert/delete batches run as multi-object
   transactions — at that depth a single mutation routinely splits or
   merges several nodes, so each transaction's write set spans many
   objects.

   Atomic kinds additionally sweep a crash through {e every} fence of the
   first batch that splits or merges a node, its applier drain included,
   and through every fence of each recovery that follows (chained: see
   [Fence_sweep]). After each recovery the tree must be structurally
   valid, the heap and backup clean, and its bindings exactly the
   volatile map mirror before or after the batch — after once the commit
   has returned. [No_logging] promises nothing mid-transaction, so it
   only crashes at operation boundaries — the same convention as the
   crash matrix. Both region crash modes are exercised. *)

module Engine = Kamino_core.Engine
module Heap = Kamino_heap.Heap
module Backup = Kamino_core.Backup
module Btree = Kamino_index.Btree
module Region = Kamino_nvm.Region
module Rng = Kamino_sim.Rng
module M = Map.Make (Int)

let config crash_mode =
  {
    Engine.default_config with
    Engine.heap_bytes = 1 lsl 18;
    log_slots = 64;
    data_log_bytes = 1 lsl 18;
    crash_mode;
  }

(* Values only need to be distinct integers; the tree stores any int64. *)
let v k = 500_000 + k

type spec = Plain of Engine.kind | Chain_head

let specs =
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

(* Preload [n] keys 0, 4, 8, ... through the transactional bulk-load
   path, one leaf-sized chunk per transaction. *)
let preload e tree n =
  let chunk = Btree.branching tree in
  let i = ref 0 in
  while !i < n do
    let m = min chunk (n - !i) in
    let base = !i in
    Engine.with_tx e (fun tx ->
        Btree.append_sorted tx tree
          (Array.init m (fun j ->
               let k = (base + j) * 4 in
               (k, v k))));
    i := !i + m
  done;
  List.init n (fun i -> i * 4) |> List.fold_left (fun m k -> M.add k (v k) m) M.empty

let make spec crash_mode =
  let config = config crash_mode in
  let e, tree =
    match spec with
    | Plain kind ->
        let e = Engine.create ~config ~kind ~seed:17 () in
        (e, Engine.with_tx e (fun tx -> Btree.create tx ~node_size:96))
    | Chain_head ->
        (* Chain heads format while still an [Intent_only] replica and are
           then promoted to a Kamino-simple head, as in §5.2. *)
        let e = Engine.create ~config ~kind:Engine.Intent_only ~seed:17 () in
        let tree = Engine.with_tx e (fun tx -> Btree.create tx ~node_size:96) in
        Engine.promote_to_kamino e;
        (e, tree)
  in
  Engine.with_tx e (fun tx -> Engine.set_root tx (Btree.descriptor tree));
  let model = preload e tree 320 in
  (e, tree, model)

let verify ctx tree model =
  (match Btree.validate tree with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: invalid tree: %s" ctx e);
  if Btree.cardinal tree <> M.cardinal model then
    Alcotest.failf "%s: cardinal %d, model %d" ctx (Btree.cardinal tree) (M.cardinal model);
  M.iter
    (fun k value ->
      if Btree.find tree k <> Some value then
        Alcotest.failf "%s: key %d missing or wrong" ctx k)
    model

let apply_batch tx tree batch =
  List.iter
    (fun (k, ins) ->
      if ins then ignore (Btree.insert tx tree k (v k)) else ignore (Btree.delete tx tree k))
    batch

let model_batch model batch =
  List.fold_left
    (fun m (k, ins) -> if ins then M.add k (v k) m else M.remove k m)
    model batch

let crash_recover e tree =
  Engine.crash e;
  Engine.recover e;
  tree := Btree.attach e (Engine.root e)

let show_bindings fold =
  let b = Buffer.create 4096 in
  fold (fun k value -> Buffer.add_string b (Printf.sprintf "%d=%d;" k value));
  Buffer.contents b

let tree_bindings e = show_bindings (Btree.iter (Btree.attach e (Engine.root e)))

let model_bindings model = show_bindings (fun f -> M.iter f model)

let node_count tree =
  let st = Btree.stats tree in
  st.Btree.internal_nodes + st.Btree.leaf_nodes

(* Crash at every fence of [batch]'s transaction and its applier drain,
   and at every fence of the recoveries after it. [setup] rebuilds the
   preloaded tree and commits [prefix], so every crash point starts from
   the same state; the recovered bindings must be [model] before or after
   the batch. *)
let sweep_batch ctx spec crash_mode prefix model batch =
  let setup () =
    let e, tree, _ = make spec crash_mode in
    List.iter (fun b -> Engine.with_tx e (fun tx -> apply_batch tx tree b)) prefix;
    e
  in
  let before = model_bindings model and after = model_bindings (model_batch model batch) in
  let check e here =
    (match Btree.validate (Btree.attach e (Engine.root e)) with
    | Ok () -> ()
    | Error err -> Alcotest.failf "%s: invalid tree: %s" here err);
    (match Heap.validate (Engine.heap e) with
    | Ok () -> ()
    | Error err -> Alcotest.failf "%s: heap invalid: %s" here err);
    (match Engine.verify_backup e with
    | Ok () -> ()
    | Error err -> Alcotest.failf "%s: backup: %s" here err);
    let got = tree_bindings e in
    if got <> before && got <> after then Alcotest.failf "%s: tree matches neither mirror" here
  in
  ignore
    (Fence_sweep.sweep ~ctx ~setup ~crash:Engine.crash ~recover:Engine.recover
       ~op:(fun e ->
         Engine.with_tx e (fun tx -> apply_batch tx (Btree.attach e (Engine.root e)) batch))
       ~drain:Engine.drain_backup ~observe:tree_bindings ~check ())

let tree_tx_qcheck (kname, spec, atomic) crash_mode =
  let mode_name =
    match crash_mode with
    | Region.Drop_unflushed -> "drop-unflushed"
    | Region.Words_survive_randomly -> "words-survive"
    | Region.Lines_survive_randomly -> "lines-survive"
  in
  let name = Printf.sprintf "tree tx crash sweep (%s, %s)" kname mode_name in
  QCheck.Test.make ~name ~count:6
    QCheck.(pair small_int (list_of_size (Gen.int_range 24 40) (pair (int_range 0 1300) bool)))
    (fun (seed, ops) ->
      let e, tree0, model0 = make spec crash_mode in
      if Btree.height tree0 < 4 then
        Alcotest.failf "preloaded tree has height %d, wanted >= 4" (Btree.height tree0);
      let tree = ref tree0 in
      let model = ref model0 in
      let rng = Rng.create (seed + 31) in
      let batches =
        let rec group = function
          | [] -> []
          | l ->
              let n = min 4 (List.length l) in
              let rec take i = function
                | x :: rest when i < n ->
                    let hd, tl = take (i + 1) rest in
                    (x :: hd, tl)
                | rest -> ([], rest)
              in
              let b, rest = take 0 l in
              b :: group rest
        in
        group ops
      in
      let swept = ref false in
      List.iteri
        (fun bi batch ->
          let ctx = Printf.sprintf "%s/%s seed=%d batch=%d" kname mode_name seed bi in
          let nodes = node_count !tree in
          Engine.with_tx e (fun tx -> apply_batch tx !tree batch);
          (* Atomic kinds: the first batch that splits or merges a node is
             replayed with the power failing at each of its fences. *)
          if atomic && (not !swept) && node_count !tree <> nodes then begin
            swept := true;
            sweep_batch ctx spec crash_mode (List.filteri (fun i _ -> i < bi) batches) !model batch
          end;
          model := model_batch !model batch;
          (* Operation-boundary crash — the only point [No_logging]
             promises anything about; all kinds take it. *)
          if Rng.int rng 3 = 0 then begin
            crash_recover e tree;
            verify (ctx ^ " (boundary)") !tree !model
          end)
        batches;
      if atomic && not !swept then Alcotest.failf "%s seed=%d: no batch split or merged" kname seed;
      verify (Printf.sprintf "%s/%s seed=%d final" kname mode_name seed) !tree !model;
      (* Structural mutations really happened: splits and merges at this
         depth mean the op mix above is meaningless if height collapsed. *)
      Btree.height !tree >= 4)

let () =
  let tests =
    List.concat_map
      (fun spec ->
        List.map
          (fun mode -> QCheck_alcotest.to_alcotest (tree_tx_qcheck spec mode))
          [ Region.Drop_unflushed; Region.Words_survive_randomly ])
      specs
  in
  Alcotest.run "tree_tx" [ ("crash sweep", tests) ]
