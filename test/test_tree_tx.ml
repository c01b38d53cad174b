(* Model-based crash test for transactional tree operations at scale-ish
   depth. A B+Tree with tiny nodes (node_size 96 -> 6 keys per node) is
   preloaded via the bulk-load path until its height is at least 4, then
   QCheck-generated insert/delete batches run as multi-object
   transactions — at that depth a single mutation routinely splits or
   merges several nodes, so each transaction's write set spans many
   objects. The draws are made concrete against the {!Tx_model} mirror,
   so every op changes the bindings, and the first batch overflows a
   leaf and deletes.

   Atomic kinds additionally sweep a crash through {e every} fence of the
   first batch that splits or merges a node, its applier drain included,
   and through every fence of each recovery that follows (chained: see
   [Fence_sweep]). After each recovery the tree must be structurally
   valid, the heap and backup clean, and its bindings exactly the
   model's before or after the batch — after once the commit has
   returned. [No_logging] promises nothing mid-transaction, so it
   only crashes at operation boundaries — the same convention as the
   crash matrix. Both region crash modes are exercised. *)

module Engine = Kamino_core.Engine
module Btree = Kamino_index.Btree
module Region = Kamino_nvm.Region
module Rng = Kamino_sim.Rng

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

(* Ops draw keys from [0, key_space). *)
let key_space = 1301

let show = Tx_model.show string_of_int string_of_int

let bindings tree = show (Tx_model.of_iter (Btree.iter tree))

(* Commits [batch] ([(key, insert?)]) to the model. *)
let model_batch model batch =
  Tx_model.begin_tx model;
  List.iter
    (fun (k, ins) -> if ins then Tx_model.put model k (v k) else Tx_model.remove model k)
    batch;
  Tx_model.commit model

(* Preload [n] keys 0, 4, 8, ... through the transactional bulk-load
   path, one leaf-sized chunk per transaction, so every leaf but the
   last two is full. *)
let preload e tree model n =
  let chunk = Btree.branching tree in
  let i = ref 0 in
  while !i < n do
    let m = min chunk (n - !i) in
    let keys = List.init m (fun j -> (!i + j) * 4) in
    Engine.with_tx e (fun tx ->
        Btree.append_sorted tx tree (Array.of_list (List.map (fun k -> (k, v k)) keys)));
    model_batch model (List.map (fun k -> (k, true)) keys);
    i := !i + m
  done

(* The preload fills leaf [i] with the keys [4 * branching * i + 4j]; its
   two-key tail is balanced with the leaf before it into two four-key
   leaves, so the leaves below [preloaded / branching - 1] are full. *)
let preloaded = 320

let make spec crash_mode =
  let e, tree =
    Tx_model.create spec ~config:(config crash_mode) ~seed:17 ~init:(fun e ->
        Engine.with_tx e (fun tx -> Btree.create tx ~node_size:96))
  in
  Engine.with_tx e (fun tx -> Engine.set_root tx (Btree.descriptor tree));
  let model = Tx_model.model () in
  preload e tree model preloaded;
  (e, tree, model)

let verify ctx tree model =
  (match Btree.validate tree with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: invalid tree: %s" ctx e);
  if bindings tree <> show model then Alcotest.failf "%s: bindings differ from the model" ctx;
  (* Point lookups descend from the root, where [iter] walks the leaf
     chain: a crash that tore a separator shows only here. *)
  List.iter
    (fun (k, value) ->
      if Btree.find tree k <> Some value then Alcotest.failf "%s: key %d missing or wrong" ctx k)
    (Tx_model.bindings model)

let apply_batch tx tree batch =
  List.iter
    (fun (k, ins) ->
      if ins then ignore (Btree.insert tx tree k (v k)) else ignore (Btree.delete tx tree k))
    batch

(* Makes the draws [(r, insert?)] concrete against [model]: each takes
   the first key at or after [r] (wrapping) that the model does not hold
   for an insert, or holds for a delete, that is not already in the
   batch, and that [fits] the batch so far. So every op changes the
   bindings. [prefix] opens the batch. *)
let concrete ?(fits = fun _ _ -> true) model prefix draws =
  let pick batch (r, ins) =
    let fits k =
      Tx_model.mem model k <> ins && (not (List.mem_assoc k batch)) && fits batch (k, ins)
    in
    match List.find_opt fits (List.init key_space (fun i -> (r + i) mod key_space)) with
    | Some k -> batch @ [ (k, ins) ]
    | None -> batch
  in
  List.fold_left pick prefix draws

let crash_recover e tree =
  Engine.crash e;
  Engine.recover e;
  tree := Btree.attach e (Engine.root e)

let node_count tree =
  let st = Btree.stats tree in
  st.Btree.internal_nodes + st.Btree.leaf_nodes

(* Crash at every fence of [batch]'s transaction and its applier drain,
   and at every fence of the recoveries after it. [setup] rebuilds the
   preloaded tree and commits [prefix], so every crash point starts from
   the same state; [expect] is the model's bindings before and after the
   batch. *)
let sweep_batch ctx spec crash_mode prefix ~expect batch =
  let setup () =
    let e, tree, _ = make spec crash_mode in
    List.iter (fun b -> Engine.with_tx e (fun tx -> apply_batch tx tree b)) prefix;
    e
  in
  let tree e = Btree.attach e (Engine.root e) in
  let check e here =
    (match Btree.validate (tree e) with
    | Ok () -> ()
    | Error err -> Alcotest.failf "%s: invalid tree: %s" here err);
    Tx_model.check_engine e here
  in
  ignore
    (Fence_sweep.sweep ~ctx ~setup ~crash:Engine.crash ~recover:Engine.recover
       ~op:(fun e -> Engine.with_tx e (fun tx -> apply_batch tx (tree e) batch))
       ~drain:Engine.drain_backup
       ~observe:(fun e -> bindings (tree e))
       ~expect ~check ())

let tree_tx_qcheck (kname, spec, atomic) (mode_name, crash_mode) =
  let name = Printf.sprintf "tree tx crash sweep (%s, %s)" kname mode_name in
  QCheck.Test.make ~name ~count:6
    QCheck.(pair small_int (list_of_size (Gen.int_range 24 40) (pair (int_range 0 1300) bool)))
    (fun (seed, ops) ->
      let e, tree0, model = make spec crash_mode in
      if Btree.height tree0 < 4 then
        Alcotest.failf "preloaded tree has height %d, wanted >= 4" (Btree.height tree0);
      let tree = ref tree0 in
      let rng = Rng.create (seed + 31) in
      let groups =
        let rec group = function
          | [] -> []
          | l ->
              let n = min 4 (List.length l) in
              List.filteri (fun i _ -> i < n) l :: group (List.filteri (fun i _ -> i >= n) l)
        in
        match group ops with [] -> [ [] ] | gs -> gs
      in
      let swept = ref false and committed = ref [] in
      List.iteri
        (fun bi draws ->
          let ctx = Printf.sprintf "%s/%s seed=%d batch=%d" kname mode_name seed bi in
          (* The first batch opens with the three free keys after a
             preloaded key [b]: they land in [b]'s leaf, of at least four
             keys, which overflows its six. Its draws keep their flags, and
             one more delete draw halfway round the key space makes sure
             the batch deletes. Each of them lands in a leaf of its own,
             not [b]'s, and a delete only in a full leaf: no leaf loses
             more than one of its six keys, so none underflows and no
             merge can undo the split. *)
          let batch =
            if bi = 0 then
              let branching = Btree.branching tree0 in
              let leaf k = k / (4 * branching) in
              let own_leaf batch (k, ins) =
                (ins || leaf k < (preloaded / branching) - 1)
                && not (List.exists (fun (k', _) -> leaf k' = leaf k) batch)
              in
              let b = 4 * (seed mod preloaded) in
              concrete ~fits:own_leaf model
                [ (b + 1, true); (b + 2, true); (b + 3, true) ]
                (draws @ [ ((b + (key_space / 2)) mod key_space, false) ])
            else concrete model [] draws
          in
          let nodes = node_count !tree and before = show model in
          Engine.with_tx e (fun tx -> apply_batch tx !tree batch);
          model_batch model batch;
          (* Atomic kinds: the first batch that splits or merges a node is
             replayed with the power failing at each of its fences. *)
          if atomic && (not !swept) && node_count !tree <> nodes then begin
            swept := true;
            if List.for_all snd batch then Alcotest.failf "%s: the swept batch deletes nothing" ctx;
            sweep_batch ctx spec crash_mode (List.rev !committed) ~expect:(before, show model)
              batch
          end;
          committed := batch :: !committed;
          (* Operation-boundary crash — the only point [No_logging]
             promises anything about; all kinds take it. *)
          if Rng.int rng 3 = 0 then begin
            crash_recover e tree;
            verify (ctx ^ " (boundary)") !tree model
          end)
        groups;
      if atomic && not !swept then Alcotest.failf "%s seed=%d: no batch split or merged" kname seed;
      verify (Printf.sprintf "%s/%s seed=%d final" kname mode_name seed) !tree model;
      (* Structural mutations really happened: splits and merges at this
         depth mean the op mix above is meaningless if height collapsed. *)
      Btree.height !tree >= 4)

let () =
  let tests =
    List.concat_map
      (fun kind ->
        List.map
          (fun mode -> QCheck_alcotest.to_alcotest (tree_tx_qcheck kind mode))
          [
            ("drop-unflushed", Region.Drop_unflushed);
            ("words-survive", Region.Words_survive_randomly);
          ])
      Tx_model.kinds
  in
  Alcotest.run "tree_tx" [ ("qcheck", tests) ]
