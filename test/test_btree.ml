(* Tests for the persistent B+Tree: model-based checks against Map, split
   and merge paths with a tiny branching factor, iteration, and crash
   atomicity of structural changes. *)

module Heap = Kamino_heap.Heap
module Engine = Kamino_core.Engine
module Backup = Kamino_core.Backup
module Btree = Kamino_index.Btree
module Rng = Kamino_sim.Rng
module Region = Kamino_nvm.Region
module Obs = Kamino_obs.Obs

let config =
  {
    Engine.default_config with
    Engine.heap_bytes = 4 lsl 20;
    log_slots = 32;
    data_log_bytes = 1 lsl 20;
  }

let make ?(kind = Engine.Kamino_simple) ?(node_size = 96) () =
  let e = Engine.create ~config ~kind ~seed:99 () in
  let tree = Engine.with_tx e (fun tx -> Btree.create tx ~node_size) in
  (e, tree)

(* Values must be plausible object pointers for validation purposes; we
   just need distinct integers, so allocate one real object and offset
   markers are simply encoded as the key itself (the tree stores any
   int64). *)
let v k = 100000 + k

let check_validate tree ctx =
  match Btree.validate tree with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: invalid tree: %s" ctx e

let test_empty () =
  let _, tree = make () in
  Alcotest.(check int) "empty cardinal" 0 (Btree.cardinal tree);
  Alcotest.(check (option int)) "find on empty" None (Btree.find tree 5);
  Alcotest.(check (option int)) "min" None (Btree.min_key tree);
  Alcotest.(check (option int)) "max" None (Btree.max_key tree);
  Alcotest.(check int) "height" 1 (Btree.height tree);
  check_validate tree "empty"

let test_insert_find () =
  let e, tree = make () in
  Engine.with_tx e (fun tx ->
      List.iter (fun k -> ignore (Btree.insert tx tree k (v k))) [ 5; 1; 9; 3; 7 ]);
  List.iter
    (fun k -> Alcotest.(check (option int)) "present" (Some (v k)) (Btree.find tree k))
    [ 1; 3; 5; 7; 9 ];
  Alcotest.(check (option int)) "absent" None (Btree.find tree 4);
  Alcotest.(check int) "cardinal" 5 (Btree.cardinal tree);
  Alcotest.(check (option int)) "min" (Some 1) (Btree.min_key tree);
  Alcotest.(check (option int)) "max" (Some 9) (Btree.max_key tree);
  check_validate tree "small"

let test_replace () =
  let e, tree = make () in
  Engine.with_tx e (fun tx ->
      Alcotest.(check (option int)) "fresh insert" None (Btree.insert tx tree 1 10);
      Alcotest.(check (option int)) "replace returns old" (Some 10) (Btree.insert tx tree 1 20));
  Alcotest.(check (option int)) "new value" (Some 20) (Btree.find tree 1);
  Alcotest.(check int) "no double count" 1 (Btree.cardinal tree)

let test_splits_grow_height () =
  let e, tree = make ~node_size:96 () in
  (* node_size 96 -> capacity 128 -> 6 keys per node: splits come fast. *)
  Engine.with_tx e (fun tx ->
      for k = 1 to 100 do
        ignore (Btree.insert tx tree k (v k))
      done);
  Alcotest.(check bool) "height grew" true (Btree.height tree > 2);
  Alcotest.(check int) "cardinal" 100 (Btree.cardinal tree);
  for k = 1 to 100 do
    Alcotest.(check (option int)) "all present" (Some (v k)) (Btree.find tree k)
  done;
  check_validate tree "after splits"

let test_delete_simple () =
  let e, tree = make () in
  Engine.with_tx e (fun tx ->
      for k = 1 to 10 do
        ignore (Btree.insert tx tree k (v k))
      done);
  Engine.with_tx e (fun tx ->
      Alcotest.(check (option int)) "delete returns value" (Some (v 5)) (Btree.delete tx tree 5);
      Alcotest.(check (option int)) "delete absent" None (Btree.delete tx tree 5));
  Alcotest.(check (option int)) "gone" None (Btree.find tree 5);
  Alcotest.(check int) "cardinal" 9 (Btree.cardinal tree);
  check_validate tree "after delete"

let test_delete_everything () =
  let e, tree = make ~node_size:96 () in
  Engine.with_tx e (fun tx ->
      for k = 1 to 200 do
        ignore (Btree.insert tx tree k (v k))
      done);
  (* Delete in an order that exercises both borrow directions and merges. *)
  let order = Array.init 200 (fun i -> i + 1) in
  Rng.shuffle (Rng.create 7) order;
  Array.iter
    (fun k ->
      Engine.with_tx e (fun tx -> ignore (Btree.delete tx tree k));
      if k mod 37 = 0 then check_validate tree (Printf.sprintf "mid-delete %d" k))
    order;
  Alcotest.(check int) "empty again" 0 (Btree.cardinal tree);
  Alcotest.(check int) "height collapsed" 1 (Btree.height tree);
  check_validate tree "emptied"

let test_iter_ordered () =
  let e, tree = make ~node_size:96 () in
  let keys = [ 42; 7; 99; 1; 55; 23; 88; 3 ] in
  Engine.with_tx e (fun tx -> List.iter (fun k -> ignore (Btree.insert tx tree k (v k))) keys);
  let seen = ref [] in
  Btree.iter tree (fun k value ->
      Alcotest.(check int) "value matches" (v k) value;
      seen := k :: !seen);
  Alcotest.(check (list int)) "ascending order" (List.sort compare keys) (List.rev !seen)

let test_range () =
  let e, tree = make ~node_size:96 () in
  Engine.with_tx e (fun tx ->
      for k = 1 to 50 do
        ignore (Btree.insert tx tree (k * 2) (v k))
      done);
  let seen = ref [] in
  Btree.range tree ~lo:10 ~hi:20 (fun k _ -> seen := k :: !seen);
  Alcotest.(check (list int)) "inclusive range" [ 10; 12; 14; 16; 18; 20 ] (List.rev !seen);
  let empty = ref [] in
  Btree.range tree ~lo:101 ~hi:200 (fun k _ -> empty := k :: !empty);
  Alcotest.(check (list int)) "empty range" [] !empty

let test_fold_range_basic () =
  let e, tree = make ~node_size:96 () in
  Engine.with_tx e (fun tx ->
      for k = 1 to 50 do
        ignore (Btree.insert tx tree (2 * k) (v k))
      done);
  let sum = Btree.fold_range tree ~lo:10 ~hi:20 ~init:0 ~f:(fun acc k _ -> acc + k) in
  Alcotest.(check int) "sum of keys 10..20" (10 + 12 + 14 + 16 + 18 + 20) sum;
  let count f = Btree.fold_range tree ~lo:(fst f) ~hi:(snd f) ~init:0 ~f:(fun a _ _ -> a + 1) in
  Alcotest.(check int) "past the end" 0 (count (101, 200));
  Alcotest.(check int) "before the start" 0 (count (-5, 1));
  Alcotest.(check int) "inverted bounds" 0 (count (20, 10));
  Alcotest.(check int) "single key" 1 (count (10, 10));
  Alcotest.(check int) "whole tree" 50 (count (min_int, max_int))

let test_fold_range_tx_sees_own_writes () =
  let e, tree = make ~node_size:96 () in
  Engine.with_tx e (fun tx ->
      for k = 1 to 10 do
        ignore (Btree.insert tx tree k (v k))
      done);
  Engine.with_tx e (fun tx ->
      ignore (Btree.insert tx tree 5 999);
      ignore (Btree.delete tx tree 7);
      let got =
        List.rev
          (Btree.fold_range_tx tx tree ~lo:4 ~hi:8 ~init:[] ~f:(fun acc k p ->
               (k, p) :: acc))
      in
      Alcotest.(check (list (pair int int)))
        "in-tx scan sees uncommitted writes"
        [ (4, v 4); (5, 999); (6, v 6); (8, v 8) ]
        got)

(* fold_range against a sorted-assoc-list model: same bindings, same
   order, for arbitrary key multisets and bounds (including empty and
   inverted ranges), across enough keys to force multi-level trees. *)
let fold_range_qcheck kind =
  let name =
    Printf.sprintf "fold_range matches sorted-assoc model (%s)" (Engine.kind_name kind)
  in
  QCheck.Test.make ~name ~count:50
    QCheck.(
      triple
        (list_of_size (Gen.int_range 0 150) (int_range 0 300))
        (int_range (-10) 310) (int_range (-10) 310))
    (fun (keys, a, b) ->
      let lo = min a b and hi = max a b in
      let e, tree = make ~kind ~node_size:96 () in
      Engine.with_tx e (fun tx ->
          List.iter (fun k -> ignore (Btree.insert tx tree k (v k))) keys);
      let model =
        List.sort_uniq compare keys
        |> List.filter (fun k -> lo <= k && k <= hi)
        |> List.map (fun k -> (k, v k))
      in
      let scanned =
        List.rev
          (Btree.fold_range tree ~lo ~hi ~init:[] ~f:(fun acc k p -> (k, p) :: acc))
      in
      scanned = model)

let test_find_tx_sees_own_writes () =
  let e, tree = make () in
  Engine.with_tx e (fun tx ->
      ignore (Btree.insert tx tree 77 123);
      Alcotest.(check (option int)) "visible in tx" (Some 123) (Btree.find_tx tx tree 77))

(* A split-free insert declares its leaf before its first write, so it
   costs one intent-log barrier; with [declare_insert] run ahead of it,
   the insert appends no intent at all. *)
let test_insert_barrier_budget () =
  let obs = Obs.create ~capacity:65536 () in
  let e = Engine.create ~config ~obs ~kind:Engine.Kamino_simple ~seed:99 () in
  let tree = Engine.with_tx e (fun tx -> Btree.create tx ~node_size:512) in
  Engine.with_tx e (fun tx -> ignore (Btree.insert tx tree 10 (v 10)));
  Engine.drain_backup e;
  let fences () = (Engine.main_counters e).Region.fences in
  let intents () =
    let n = ref 0 in
    Obs.iter obs (fun ~kind ~track:_ ~ts:_ ~dur:_ ~a:_ ~b:_ ~c:_ ->
        if kind = Obs.k_intent then incr n);
    !n
  in
  Engine.with_tx e (fun tx ->
      let f0 = fences () in
      ignore (Btree.insert tx tree 20 (v 20));
      Alcotest.(check int) "one barrier per split-free insert" 1 (fences () - f0));
  Engine.drain_backup e;
  Engine.with_tx e (fun tx ->
      Btree.declare_insert tx (Btree.seek tx tree 30);
      let n0 = intents () in
      ignore (Btree.insert tx tree 30 (v 30));
      Alcotest.(check int) "declared insert appends no intent" n0 (intents ()));
  Alcotest.(check (list (option int))) "all present"
    [ Some (v 10); Some (v 20); Some (v 30) ]
    (List.map (Btree.find tree) [ 10; 20; 30 ]);
  check_validate tree "after declared inserts"

(* The delete-side twin: a merge-free delete declares its leaf up front
   (one barrier), and after [declare_delete] the delete appends no
   intent. A root leaf never merges. *)
let test_delete_barrier_budget () =
  let obs = Obs.create ~capacity:65536 () in
  let e = Engine.create ~config ~obs ~kind:Engine.Kamino_simple ~seed:99 () in
  let tree = Engine.with_tx e (fun tx -> Btree.create tx ~node_size:512) in
  Engine.with_tx e (fun tx ->
      List.iter (fun k -> ignore (Btree.insert tx tree k (v k))) [ 10; 20; 30; 40 ]);
  Engine.drain_backup e;
  let fences () = (Engine.main_counters e).Region.fences in
  let intents () =
    let n = ref 0 in
    Obs.iter obs (fun ~kind ~track:_ ~ts:_ ~dur:_ ~a:_ ~b:_ ~c:_ ->
        if kind = Obs.k_intent then incr n);
    !n
  in
  Engine.with_tx e (fun tx ->
      let f0 = fences () in
      Alcotest.(check (option int)) "deleted value" (Some (v 20)) (Btree.delete tx tree 20);
      Alcotest.(check int) "one barrier per merge-free delete" 1 (fences () - f0));
  Engine.drain_backup e;
  Engine.with_tx e (fun tx ->
      let at = Btree.seek tx tree 30 in
      Alcotest.(check int) "cursor finds the key" (v 30) (Btree.found at);
      Btree.declare_delete tx at;
      let n0 = intents () in
      Alcotest.(check (option int)) "deleted at cursor" (Some (v 30)) (Btree.delete_at tx tree at);
      Alcotest.(check int) "declared delete appends no intent" n0 (intents ()));
  Alcotest.(check (list (option int))) "survivors"
    [ Some (v 10); None; None; Some (v 40) ]
    (List.map (Btree.find tree) [ 10; 20; 30; 40 ]);
  Alcotest.(check int) "cardinal" 2 (Btree.cardinal tree);
  check_validate tree "after declared deletes"

(* The intents an insert declares, as (offset, length) pairs. *)
let intents_of obs f =
  let before = ref 0 in
  Obs.iter obs (fun ~kind ~track:_ ~ts:_ ~dur:_ ~a:_ ~b:_ ~c:_ ->
      if kind = Obs.k_intent then incr before);
  f ();
  let seen = ref [] and i = ref 0 in
  Obs.iter obs (fun ~kind ~track:_ ~ts:_ ~dur:_ ~a ~b ~c:_ ->
      if kind = Obs.k_intent then begin
        if !i >= !before then seen := (a, b) :: !seen;
        incr i
      end);
  List.rev !seen

(* The store's insert, plan then apply: one descent, the leaf declared,
   the value allocated, the binding written. *)
let store_insert tx tree key =
  let at = Btree.seek tx tree key in
  Btree.declare_insert tx at;
  let vptr = Engine.alloc tx 64 in
  ignore (Btree.insert_at tx tree at vptr);
  vptr

(* A split-free insert writes the leaf and the value extent, and nothing
   else (the allocator keeps no persistent word): the descriptor holds no count, so it is not
   in the write set. A root split still declares it, for the root
   pointer. *)
let test_insert_write_set () =
  let obs = Obs.create ~capacity:65536 () in
  let e = Engine.create ~config ~obs ~kind:Engine.Kamino_simple ~seed:99 () in
  let tree = Engine.with_tx e (fun tx -> Btree.create tx ~node_size:96) in
  let heap = Engine.heap e in
  let extent p =
    let { Heap.off; len } = Heap.extent heap p in
    (off, len)
  in
  let desc = extent (Btree.descriptor tree) in
  let root_leaf () =
    let nodes = ref [] in
    Btree.iter_nodes tree (fun p -> nodes := p :: !nodes);
    match !nodes with [ leaf; _desc ] -> leaf | _ -> Alcotest.fail "expected a root leaf"
  in
  let leaf = extent (root_leaf ()) in
  let vptr = ref Heap.null in
  let split_free =
    intents_of obs (fun () -> Engine.with_tx e (fun tx -> vptr := store_insert tx tree 10))
  in
  Alcotest.(check int) "two intents" 2 (List.length split_free);
  Alcotest.(check bool) "the leaf" true (List.mem leaf split_free);
  Alcotest.(check bool) "the value extent" true (List.mem (extent !vptr) split_free);
  Alcotest.(check bool) "no descriptor" false (List.mem desc split_free);
  (* Fill the root leaf, then split it. *)
  let mk = Btree.branching tree in
  Engine.with_tx e (fun tx ->
      for k = 11 to 9 + mk do
        ignore (store_insert tx tree k)
      done);
  Alcotest.(check int) "root is a full leaf" 1 (Btree.height tree);
  let split =
    intents_of obs (fun () ->
        Engine.with_tx e (fun tx -> ignore (store_insert tx tree 100)))
  in
  Alcotest.(check int) "the root split" 2 (Btree.height tree);
  Alcotest.(check bool) "a root split declares the descriptor" true (List.mem desc split);
  Alcotest.(check int) "cardinal" (mk + 1) (Btree.cardinal tree);
  check_validate tree "after the root split"

let test_abort_rolls_back_structure () =
  List.iter
    (fun kind ->
      let name = Engine.kind_name kind in
      let e, tree = make ~kind ~node_size:96 () in
      Engine.with_tx e (fun tx ->
          for k = 1 to 30 do
            ignore (Btree.insert tx tree k (v k))
          done);
      let card = Btree.cardinal tree and h = Btree.height tree in
      (* A big aborted transaction that would cause splits. *)
      let tx = Engine.begin_tx e in
      for k = 100 to 160 do
        ignore (Btree.insert tx tree k (v k))
      done;
      Engine.abort tx;
      Alcotest.(check int) (name ^ ": cardinal restored") card (Btree.cardinal tree);
      Alcotest.(check int) (name ^ ": height restored") h (Btree.height tree);
      Alcotest.(check (option int)) (name ^ ": inserted key gone") None (Btree.find tree 120);
      check_validate tree (name ^ " after abort");
      Alcotest.(check bool) (name ^ ": heap valid") true
        (Heap.validate (Engine.heap e) = Ok ()))
    [ Engine.Undo_logging; Engine.Cow; Engine.Kamino_simple ]

let test_attach_after_reopen () =
  let e, tree = make () in
  Engine.with_tx e (fun tx ->
      ignore (Btree.insert tx tree 1 11);
      Engine.set_root tx (Btree.descriptor tree));
  Engine.crash e;
  Engine.recover e;
  let tree' = Btree.attach e (Engine.root e) in
  Alcotest.(check (option int)) "rebound tree finds key" (Some 11) (Btree.find tree' 1);
  check_validate tree' "after reopen"

(* Model-based test: random insert/delete/replace against Map, with
   per-transaction batching, validated continuously. *)
let model_qcheck kind =
  let name = Printf.sprintf "btree matches Map model (%s)" (Engine.kind_name kind) in
  QCheck.Test.make ~name ~count:30
    QCheck.(pair small_int (list_of_size (Gen.int_range 30 120) (pair (int_range 0 200) bool)))
    (fun (_, ops) ->
      let e, tree = make ~kind ~node_size:96 () in
      let module M = Map.Make (Int) in
      let model = ref M.empty in
      let batch = ref [] in
      let flush_batch () =
        if !batch <> [] then begin
          Engine.with_tx e (fun tx ->
              List.iter
                (fun (k, ins) ->
                  if ins then ignore (Btree.insert tx tree k (v k))
                  else ignore (Btree.delete tx tree k))
                (List.rev !batch));
          List.iter
            (fun (k, ins) ->
              if ins then model := M.add k (v k) !model else model := M.remove k !model)
            (List.rev !batch);
          batch := []
        end
      in
      List.iteri
        (fun i op ->
          batch := op :: !batch;
          if i mod 7 = 6 then flush_batch ())
        ops;
      flush_batch ();
      Btree.validate tree = Ok ()
      && Btree.cardinal tree = M.cardinal !model
      && M.for_all (fun k value -> Btree.find tree k = Some value) !model
      && List.for_all
           (fun (k, _) -> M.mem k !model || Btree.find tree k = None)
           ops)

(* Crash-injection on tree structure: run batches, crash randomly between
   them, verify committed state and tree validity. *)
let crash_qcheck kind =
  let name = Printf.sprintf "btree survives crashes (%s)" (Engine.kind_name kind) in
  QCheck.Test.make ~name ~count:15
    QCheck.(pair small_int (list_of_size (Gen.int_range 20 80) (pair (int_range 0 150) bool)))
    (fun (seed, ops) ->
      let e, tree = make ~kind ~node_size:96 () in
      Engine.with_tx e (fun tx -> Engine.set_root tx (Btree.descriptor tree));
      let rng = Rng.create (seed + 1) in
      let module M = Map.Make (Int) in
      let model = ref M.empty in
      let tree = ref tree in
      let batches = ref [] in
      let cur = ref [] in
      List.iteri
        (fun i op ->
          cur := op :: !cur;
          if i mod 5 = 4 then begin
            batches := List.rev !cur :: !batches;
            cur := []
          end)
        ops;
      if !cur <> [] then batches := List.rev !cur :: !batches;
      List.iter
        (fun batch ->
          let committed = ref false in
          (try
             Engine.with_tx e (fun tx ->
                 List.iter
                   (fun (k, ins) ->
                     if ins then ignore (Btree.insert tx !tree k (v k))
                     else ignore (Btree.delete tx !tree k))
                   batch;
                 committed := true)
           with Failure _ -> ());
          if !committed then
            List.iter
              (fun (k, ins) ->
                if ins then model := M.add k (v k) !model else model := M.remove k !model)
              batch;
          if Rng.int rng 3 = 0 then begin
            Engine.crash e;
            Engine.recover e;
            tree := Btree.attach e (Engine.root e)
          end)
        (List.rev !batches);
      Btree.validate !tree = Ok ()
      && M.for_all (fun k value -> Btree.find !tree k = Some value) !model
      && Btree.cardinal !tree = M.cardinal !model)

(* --- Bulk load and count-bounded scan --- *)

(* Append in uneven batches (including sizes below min_keys, which must
   rebalance rather than create underfull leaves) and check the result is
   a valid tree holding exactly the appended bindings. node_size 96 means
   mk = 4, so a few hundred keys exercise real depth. *)
let test_append_sorted () =
  let e, tree = make () in
  let next = ref 0 in
  List.iter
    (fun batch ->
      let entries = Array.init batch (fun i -> (!next + i, v (!next + i))) in
      Engine.with_tx e (fun tx -> Btree.append_sorted tx tree entries);
      next := !next + batch;
      check_validate tree (Printf.sprintf "after batch of %d" batch))
    [ 1; 3; 4; 2; 17; 1; 40; 5; 100; 2; 64 ];
  Alcotest.(check int) "cardinal" !next (Btree.cardinal tree);
  for k = 0 to !next - 1 do
    Alcotest.(check (option int)) (Printf.sprintf "key %d" k) (Some (v k))
      (Btree.find tree k)
  done;
  Alcotest.(check bool) "bulk load built real depth" true (Btree.height tree >= 4);
  (* Ascending-order iteration sees exactly the appended keys. *)
  let seen = ref [] in
  Btree.iter tree (fun k _ -> seen := k :: !seen);
  Alcotest.(check (list int)) "iter in order" (List.init !next Fun.id) (List.rev !seen)

let test_append_rejects_bad_input () =
  let e, tree = make () in
  Engine.with_tx e (fun tx -> Btree.append_sorted tx tree [| (10, v 10); (20, v 20) |]);
  let raises entries =
    try
      Engine.with_tx e (fun tx -> Btree.append_sorted tx tree entries);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "key below current max rejected" true (raises [| (15, v 15) |]);
  Alcotest.(check bool) "unsorted batch rejected" true
    (raises [| (30, v 30); (25, v 25) |]);
  check_validate tree "after rejected appends"

let test_scan_count_bounded () =
  let e, tree = make () in
  (* Even keys 0..198. *)
  let entries = Array.init 100 (fun i -> (2 * i, v (2 * i))) in
  Engine.with_tx e (fun tx -> Btree.append_sorted tx tree entries);
  let collect lo count =
    let acc = ref [] in
    let n = Btree.scan tree ~lo ~count (fun k _ -> acc := k :: !acc) in
    (n, List.rev !acc)
  in
  (* lo between keys: starts at the next present key. *)
  let n, keys = collect 5 4 in
  Alcotest.(check int) "visited" 4 n;
  Alcotest.(check (list int)) "window" [ 6; 8; 10; 12 ] keys;
  (* Window crossing many leaves. *)
  let n, keys = collect 0 50 in
  Alcotest.(check int) "long scan count" 50 n;
  Alcotest.(check (list int)) "long scan keys" (List.init 50 (fun i -> 2 * i)) keys;
  (* Truncated at the end of the key space. *)
  let n, keys = collect 190 10 in
  Alcotest.(check int) "tail scan" 5 n;
  Alcotest.(check (list int)) "tail keys" [ 190; 192; 194; 196; 198 ] keys;
  (* Degenerate windows. *)
  Alcotest.(check int) "count 0" 0 (fst (collect 0 0));
  Alcotest.(check int) "lo past max" 0 (fst (collect 1000 5))

(* A scan's charged loads past its descent: per leaf, the header words
   (its key count, and the previous leaf's next pointer) and two run
   loads, its visited keys and their pointers. A one-key scan from [lo]
   is the descent plus the first leaf's header and runs, so a scan of m
   keys inside that leaf costs the same loads and 16 (m - 1) more bytes,
   and each further leaf adds exactly four loads. 100 appended keys
   with node_size 96 (4 keys per node) make 25 leaves of keys
   [4j, 4j + 4). *)
let test_scan_loads () =
  let e, tree = make () in
  Engine.with_tx e (fun tx ->
      Btree.append_sorted tx tree (Array.init 100 (fun i -> (i, v i))));
  Alcotest.(check int) "4 keys per node" 4 (Btree.branching tree);
  Alcotest.(check int) "25 leaves" 25 (Btree.stats tree).Btree.leaf_nodes;
  let cost ~lo ~count =
    let c0 = Engine.main_counters e in
    let n = Btree.scan tree ~lo ~count (fun _ _ -> ()) in
    Alcotest.(check int) (Printf.sprintf "scan %d from %d: visited" count lo) count n;
    let c1 = Engine.main_counters e in
    (c1.Region.loads - c0.Region.loads, c1.Region.bytes_loaded - c0.Region.bytes_loaded)
  in
  let check ~lo ~count ~leaves =
    let base_loads, base_bytes = cost ~lo ~count:1 in
    let loads, bytes = cost ~lo ~count in
    let ctx = Printf.sprintf "scan %d from %d" count lo in
    Alcotest.(check bool) (ctx ^ ": the descent is charged") true (base_loads > 2);
    Alcotest.(check int) (ctx ^ ": loads") (base_loads + (4 * (leaves - 1))) loads;
    Alcotest.(check int) (ctx ^ ": bytes")
      (base_bytes + (16 * (count - 1)) + (16 * (leaves - 1)))
      bytes
  in
  check ~lo:4 ~count:4 ~leaves:1;
  check ~lo:5 ~count:2 ~leaves:1;
  check ~lo:4 ~count:12 ~leaves:3;
  check ~lo:6 ~count:7 ~leaves:3;
  check ~lo:0 ~count:100 ~leaves:25

(* Scan against the fold it must agree with: on random trees shaped by
   inserts, deletes, splits and merges, [scan ~lo ~count] is the first
   [count] bindings of [fold_range] from [lo], for every [lo] (so every
   start offset in every leaf) and counts that stop inside a leaf, at its
   end, and past the last key. *)
let scan_qcheck =
  QCheck.Test.make ~name:"scan is a prefix of fold_range" ~count:30
    QCheck.(list_of_size (Gen.int_range 0 150) (pair (int_range 0 200) bool))
    (fun ops ->
      let e, tree = make () in
      List.iteri
        (fun i (k, ins) ->
          Engine.with_tx e (fun tx ->
              if ins || i mod 3 = 0 then ignore (Btree.insert tx tree k (v k))
              else ignore (Btree.delete tx tree k)))
        ops;
      let rec take n = function x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> [] in
      let ok = ref (Btree.validate tree = Ok ()) in
      for lo = -1 to 201 do
        let all =
          List.rev
            (Btree.fold_range tree ~lo ~hi:max_int ~init:[] ~f:(fun acc k p ->
                 (k, p) :: acc))
        in
        List.iter
          (fun count ->
            let seen = ref [] in
            let n = Btree.scan tree ~lo ~count (fun k p -> seen := (k, p) :: !seen) in
            let want = take count all in
            if n <> List.length want || List.rev !seen <> want then ok := false)
          [ 0; 1; 2; 3; 5; 6; 7; 13; 400 ]
      done;
      !ok)

(* The leaf chain must visit the tree's leaves in key order. Swapping
   two adjacent leaves in the chain keeps the set of leaves and every
   key count, so only the order check can see it. Nodes lay out their
   flags word at 0 (1 for a leaf) and the next-leaf pointer at 16. *)
let test_validate_chain_order () =
  let e, tree = make () in
  Engine.with_tx e (fun tx ->
      Btree.append_sorted tx tree (Array.init 40 (fun i -> (i, v i))));
  check_validate tree "before";
  let leaves = ref [] in
  Btree.iter_nodes tree (fun p ->
      if p <> Btree.descriptor tree && Engine.probe_int e p 0 = 1 then
        leaves := p :: !leaves);
  match List.rev !leaves with
  | l0 :: l1 :: l2 :: l3 :: _ ->
      let r = Engine.main_region e in
      Region.write_int r (l0 + 16) l2;
      Region.write_int r (l2 + 16) l1;
      Region.write_int r (l1 + 16) l3;
      Alcotest.(check int) "every key still counted" 40 (Btree.cardinal tree);
      Alcotest.(check bool) "a mis-ordered chain fails validate" true
        (Result.is_error (Btree.validate tree))
  | _ -> Alcotest.fail "expected at least four leaves"

let test_depth_and_stats () =
  let e, tree = make () in
  let entries = Array.init 200 (fun i -> (i, v i)) in
  Engine.with_tx e (fun tx -> Btree.append_sorted tx tree entries);
  Alcotest.(check int) "depth agrees with height" (Btree.height tree) (Btree.depth tree);
  let s = Btree.stats tree in
  Alcotest.(check int) "stats depth" (Btree.depth tree) s.Btree.depth;
  Alcotest.(check int) "stats keys = cardinal" (Btree.cardinal tree) s.Btree.keys;
  (* node_size 96 rounds up to the 128-byte class -> mk = 6, so 200 keys
     need at least ceil(200/6) = 34 leaves. *)
  Alcotest.(check bool) "leaves counted" true (s.Btree.leaf_nodes >= 34);
  Alcotest.(check bool) "occupancy in (0,1]" true
    (s.Btree.occupancy > 0.0 && s.Btree.occupancy <= 1.0);
  (* The introspection walk is cost-free: reading it must not advance the
     simulated clock. *)
  let t0 = Engine.now e in
  ignore (Btree.stats tree);
  ignore (Btree.depth tree);
  Alcotest.(check int) "stats walk charges nothing" t0 (Engine.now e)

let () =
  Alcotest.run "btree"
    [
      ( "basics",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "insert and find" `Quick test_insert_find;
          Alcotest.test_case "replace" `Quick test_replace;
          Alcotest.test_case "splits grow height" `Quick test_splits_grow_height;
          Alcotest.test_case "find_tx sees own writes" `Quick test_find_tx_sees_own_writes;
        ] );
      ( "delete",
        [
          Alcotest.test_case "simple delete" `Quick test_delete_simple;
          Alcotest.test_case "delete everything" `Quick test_delete_everything;
        ] );
      ( "iteration",
        [
          Alcotest.test_case "iter ordered" `Quick test_iter_ordered;
          Alcotest.test_case "range" `Quick test_range;
          Alcotest.test_case "fold_range basics" `Quick test_fold_range_basic;
          Alcotest.test_case "fold_range_tx sees own writes" `Quick
            test_fold_range_tx_sees_own_writes;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "abort rolls back structure" `Quick
            test_abort_rolls_back_structure;
          Alcotest.test_case "one barrier per split-free insert" `Quick
            test_insert_barrier_budget;
          Alcotest.test_case "one barrier per merge-free delete" `Quick
            test_delete_barrier_budget;
          Alcotest.test_case "an insert's write set has no descriptor" `Quick
            test_insert_write_set;
          Alcotest.test_case "attach after reopen" `Quick test_attach_after_reopen;
        ] );
      ( "bulk",
        [
          Alcotest.test_case "append_sorted" `Quick test_append_sorted;
          Alcotest.test_case "append_sorted rejects bad input" `Quick
            test_append_rejects_bad_input;
          Alcotest.test_case "count-bounded scan" `Quick test_scan_count_bounded;
          Alcotest.test_case "scan loads each leaf's runs once" `Quick test_scan_loads;
          Alcotest.test_case "depth and stats are cost-free" `Quick
            test_depth_and_stats;
          Alcotest.test_case "validate checks the leaf chain's order" `Quick
            test_validate_chain_order;
        ] );
      ( "qcheck",
        [
          QCheck_alcotest.to_alcotest (model_qcheck Engine.Undo_logging);
          QCheck_alcotest.to_alcotest (model_qcheck Engine.Cow);
          QCheck_alcotest.to_alcotest (model_qcheck Engine.Kamino_simple);
          QCheck_alcotest.to_alcotest
            (model_qcheck (Engine.Kamino_dynamic { alpha = 0.4; policy = Backup.Lru_policy }));
          QCheck_alcotest.to_alcotest (fold_range_qcheck Engine.Undo_logging);
          QCheck_alcotest.to_alcotest (fold_range_qcheck Engine.Kamino_simple);
          QCheck_alcotest.to_alcotest scan_qcheck;
          QCheck_alcotest.to_alcotest (crash_qcheck Engine.Undo_logging);
          QCheck_alcotest.to_alcotest (crash_qcheck Engine.Kamino_simple);
          QCheck_alcotest.to_alcotest
            (crash_qcheck (Engine.Kamino_dynamic { alpha = 0.4; policy = Backup.Lru_policy }));
        ] );
    ]
