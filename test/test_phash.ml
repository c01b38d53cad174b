(* Tests for the persistent hash table and the volatile LRU queue used by
   the dynamic backup. *)

module Rng = Kamino_sim.Rng
module Clock = Kamino_sim.Clock
module Region = Kamino_nvm.Region
module Phash = Kamino_core.Phash
module Lru = Kamino_core.Lru

let make ?(capacity = 64) ?(crash_mode = Region.Drop_unflushed) ?(seed = 1) () =
  let clock = Clock.create () in
  let r =
    Region.create ~crash_mode ~rng:(Rng.create seed) ~clock
      ~size:(Phash.required_size ~capacity) ()
  in
  (Phash.format r ~capacity, r)

let test_insert_find_remove () =
  let h, _ = make () in
  Phash.insert h ~key:100 ~value:1;
  Phash.insert h ~key:200 ~value:2;
  Alcotest.(check (option int)) "find 100" (Some 1) (Phash.find h ~key:100);
  Alcotest.(check (option int)) "find 200" (Some 2) (Phash.find h ~key:200);
  Alcotest.(check (option int)) "absent" None (Phash.find h ~key:300);
  Alcotest.(check int) "count" 2 (Phash.count h);
  Alcotest.(check bool) "remove present" true (Phash.remove h ~key:100);
  Alcotest.(check bool) "remove absent" false (Phash.remove h ~key:100);
  Alcotest.(check (option int)) "gone" None (Phash.find h ~key:100);
  Alcotest.(check int) "count after remove" 1 (Phash.count h)

let test_overwrite () =
  let h, _ = make () in
  Phash.insert h ~key:5 ~value:10;
  Phash.insert h ~key:5 ~value:20;
  Alcotest.(check (option int)) "overwritten" (Some 20) (Phash.find h ~key:5);
  Alcotest.(check int) "no duplicate" 1 (Phash.count h)

let test_tombstone_reuse () =
  let h, _ = make ~capacity:16 () in
  (* Fill, delete, and re-insert repeatedly: tombstones must be reused, and
     probing must still find keys past tombstones. *)
  for round = 1 to 50 do
    for k = 1 to 12 do
      Phash.insert h ~key:(k * 1000) ~value:(round * k)
    done;
    for k = 1 to 12 do
      Alcotest.(check (option int))
        (Printf.sprintf "round %d key %d" round k)
        (Some (round * k))
        (Phash.find h ~key:(k * 1000))
    done;
    for k = 1 to 12 do
      ignore (Phash.remove h ~key:(k * 1000))
    done
  done;
  Alcotest.(check int) "empty at end" 0 (Phash.count h)

let test_invalid_key () =
  let h, _ = make () in
  Alcotest.(check bool) "non-positive key rejected" true
    (try
       Phash.insert h ~key:0 ~value:1;
       false
     with Invalid_argument _ -> true)

let test_persistence_across_crash () =
  let h, r = make () in
  Phash.insert h ~key:11 ~value:101;
  Phash.insert h ~key:22 ~value:202;
  ignore (Phash.remove h ~key:11);
  Region.crash r;
  let h' = Phash.open_existing r in
  Alcotest.(check (option int)) "surviving entry" (Some 202) (Phash.find h' ~key:22);
  Alcotest.(check (option int)) "removed entry gone" None (Phash.find h' ~key:11);
  Alcotest.(check int) "count rebuilt" 1 (Phash.count h')

let test_no_half_inserts_on_crash () =
  (* The two-step publish discipline: whatever the crash timing, a key that
     is visible must map to the value that was being inserted (never
     garbage). *)
  for seed = 1 to 60 do
    let h, r = make ~crash_mode:Region.Words_survive_randomly ~seed () in
    Phash.insert h ~key:7 ~value:70;
    (* A second insert that may tear. *)
    (try Phash.insert h ~key:9 ~value:90 with _ -> ());
    Region.crash r;
    let h' = Phash.open_existing r in
    Alcotest.(check (option int)) "stable entry intact" (Some 70) (Phash.find h' ~key:7);
    match Phash.find h' ~key:9 with
    | None -> ()
    | Some v -> Alcotest.(check int) "published value correct" 90 v
  done

let model_qcheck =
  QCheck.Test.make ~name:"phash matches Hashtbl model" ~count:100
    QCheck.(small_list (pair (int_range 1 50) (option small_int)))
    (fun ops ->
      let h, _ = make ~capacity:256 () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (k, v) ->
          match v with
          | Some v ->
              Phash.insert h ~key:k ~value:v;
              Hashtbl.replace model k v
          | None ->
              ignore (Phash.remove h ~key:k);
              Hashtbl.remove model k)
        ops;
      Hashtbl.fold (fun k v acc -> acc && Phash.find h ~key:k = Some v) model true
      && Phash.count h = Hashtbl.length model)

(* --- Capacity: overload and incremental resize --- *)

(* Fixed-size region (no resize headroom): the table serves load factors
   0.5 and 0.9 correctly, fills to 1.0, and the insert past full raises
   the typed [Overload] — never a silent wedge or a string failwith. *)
let test_load_factors () =
  let capacity = 64 in
  let check_load h n =
    for k = 1 to n do
      Phash.insert h ~key:(k * 7919) ~value:k
    done;
    for k = 1 to n do
      Alcotest.(check (option int))
        (Printf.sprintf "load %d/%d key %d" n capacity k)
        (Some k)
        (Phash.find h ~key:(k * 7919))
    done;
    Alcotest.(check int) "count" n (Phash.count h)
  in
  let h, _ = make ~capacity () in
  check_load h (capacity / 2);
  (* 0.5 *)
  let h, _ = make ~capacity () in
  check_load h (capacity * 9 / 10);
  (* 0.9 *)
  let h, _ = make ~capacity () in
  check_load h capacity;
  (* 1.0: completely full, every key still reachable *)
  Alcotest.(check bool) "not resizing (no headroom)" false (Phash.resizing h);
  match Phash.insert h ~key:999_999 ~value:1 with
  | () -> Alcotest.fail "insert past capacity must raise Overload"
  | exception Phash.Overload { capacity = c; count } ->
      Alcotest.(check int) "overload capacity" capacity c;
      Alcotest.(check int) "overload count" capacity count

(* Region sized with [chain_size ~doublings]: crossing the load trigger
   arms a split migration; inserts keep landing while old entries drain
   over, and the table ends with doubled capacity and zero loss. *)
let test_transparent_resize () =
  let capacity = 32 in
  let clock = Clock.create () in
  let r =
    Region.create ~rng:(Rng.create 3) ~clock
      ~size:(Phash.chain_size ~capacity ~doublings:2) ()
  in
  let h = Phash.format r ~capacity in
  let n = 100 in
  (* > 2x initial capacity: needs both doublings *)
  for k = 1 to n do
    Phash.insert h ~key:(k * 131) ~value:k
  done;
  Alcotest.(check int) "count after growth" n (Phash.count h);
  Alcotest.(check bool) "capacity grew" true (Phash.capacity h > capacity);
  Alcotest.(check bool) "migrations completed" true (Phash.migrations h >= 1);
  for k = 1 to n do
    Alcotest.(check (option int))
      (Printf.sprintf "key %d after resize" k)
      (Some k)
      (Phash.find h ~key:(k * 131))
  done;
  (* Overwrites and removes stay correct whatever table a key lives in. *)
  Phash.insert h ~key:131 ~value:1001;
  Alcotest.(check (option int)) "overwrite post-resize" (Some 1001) (Phash.find h ~key:131);
  Alcotest.(check bool) "remove post-resize" true (Phash.remove h ~key:(2 * 131));
  Alcotest.(check (option int)) "removed gone" None (Phash.find h ~key:(2 * 131));
  Alcotest.(check int) "count tracks" (n - 1) (Phash.count h)

(* Crash at every fence of every insert, under both crash modes — the
   inserts that arm a doubling and the ones that run a migration batch
   included — and at every fence of the [open_existing] that recovers
   from it. Reopening must yield exactly the table before or after the
   insert, with no migration pending, and the table must keep growing. *)
type resize_state = { r : Region.t; mutable h : Phash.t }

let test_resize_crash_sweep () =
  (* capacity 16 with two doublings tops out at 64 slots; 60 inserts cross
     both arm thresholds (>14 and >28) without overloading the final table. *)
  let n = 60 in
  let key k = k * 4093 in
  let insert s k = Phash.insert s.h ~key:(key k) ~value:(k * 3) in
  let observe s =
    let found =
      List.filter_map
        (fun k -> Option.map (fun v -> (key k, v)) (Phash.find s.h ~key:(key k)))
        (List.init n succ)
    in
    let listed = ref [] in
    Phash.iter s.h (fun ~key ~value -> listed := (key, value) :: !listed);
    let show l = String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%d:%d" k v) l) in
    Printf.sprintf "count=%d found=[%s] listed=[%s]" (Phash.count s.h) (show found)
      (show (List.sort compare !listed))
  in
  List.iter
    (fun (mode_name, crash_mode) ->
      List.iter
        (fun seed ->
          let recovery_points = ref 0 in
          for i = 1 to n do
            let setup () =
              let r =
                Region.create ~crash_mode ~rng:(Rng.create (seed + (i * 97)))
                  ~clock:(Clock.create ())
                  ~size:(Phash.chain_size ~capacity:16 ~doublings:2) ()
              in
              let s = { r; h = Phash.format r ~capacity:16 } in
              for k = 1 to i - 1 do
                insert s k
              done;
              s
            in
            let ctx = Printf.sprintf "%s seed=%d insert %d" mode_name seed i in
            let st =
              Fence_sweep.sweep ~ctx ~setup
                ~crash:(fun s -> Region.crash s.r)
                ~recover:(fun s -> s.h <- Phash.open_existing s.r)
                ~op:(fun s -> insert s i)
                ~drain:ignore ~observe
                ~check:(fun s here ->
                  Alcotest.(check bool) (here ^ ": no migration pending after reopen") false
                    (Phash.resizing s.h))
                ~on_crash:(fun s _ ->
                  (* The reopened table must keep working, through more growth. *)
                  for k = Phash.count s.h + 1 to n do
                    insert s k
                  done;
                  Alcotest.(check int) (ctx ^ ": final count") n (Phash.count s.h))
                ()
            in
            recovery_points := !recovery_points + st.Fence_sweep.recovery_points
          done;
          (* Reopens that finish an interrupted migration have fences of
             their own; the sweep must have crashed some of them. *)
          if !recovery_points = 0 then
            Alcotest.failf "%s seed=%d: no open_existing fence crashed" mode_name seed)
        [ 1; 2 ])
    [ ("drop-unflushed", Region.Drop_unflushed); ("words-survive", Region.Words_survive_randomly) ]

let test_iter () =
  let h, _ = make () in
  Phash.insert h ~key:1 ~value:10;
  Phash.insert h ~key:2 ~value:20;
  let acc = ref [] in
  Phash.iter h (fun ~key ~value -> acc := (key, value) :: !acc);
  Alcotest.(check (list (pair int int))) "all entries" [ (1, 10); (2, 20) ]
    (List.sort compare !acc)

(* --- LRU --- *)

let test_lru_order () =
  let q = Lru.create () in
  List.iter (Lru.touch q) [ 1; 2; 3 ];
  Alcotest.(check (option int)) "LRU is 1" (Some 1)
    (Lru.evict_candidate q ~locked:(fun _ -> false));
  Lru.touch q 1;
  (* 1 becomes MRU; 2 is now LRU *)
  Alcotest.(check (option int)) "after touch LRU is 2" (Some 2)
    (Lru.evict_candidate q ~locked:(fun _ -> false))

let test_lru_skips_locked () =
  let q = Lru.create () in
  List.iter (Lru.touch q) [ 1; 2; 3 ];
  Alcotest.(check (option int)) "skips locked LRU" (Some 2)
    (Lru.evict_candidate q ~locked:(fun k -> k = 1));
  Alcotest.(check (option int)) "all locked" None
    (Lru.evict_candidate q ~locked:(fun _ -> true))

let test_lru_remove () =
  let q = Lru.create () in
  List.iter (Lru.touch q) [ 1; 2; 3 ];
  Lru.remove q 2;
  Alcotest.(check int) "length" 2 (Lru.length q);
  Alcotest.(check bool) "gone" false (Lru.mem q 2);
  let order = ref [] in
  Lru.iter_lru_order q (fun k -> order := k :: !order);
  Alcotest.(check (list int)) "remaining order (MRU first)" [ 3; 1 ] !order

let test_lru_remove_head_tail () =
  let q = Lru.create () in
  List.iter (Lru.touch q) [ 1; 2; 3 ];
  Lru.remove q 3;
  (* MRU *)
  Lru.remove q 1;
  (* LRU *)
  Alcotest.(check (option int)) "middle remains" (Some 2)
    (Lru.evict_candidate q ~locked:(fun _ -> false));
  Lru.remove q 2;
  Alcotest.(check (option int)) "empty" None (Lru.evict_candidate q ~locked:(fun _ -> false));
  (* removing from empty is a no-op *)
  Lru.remove q 2

let lru_model_qcheck =
  QCheck.Test.make ~name:"lru eviction order matches a list model" ~count:100
    QCheck.(small_list (int_range 0 9))
    (fun touches ->
      let q = Lru.create () in
      let model = ref [] in
      List.iter
        (fun k ->
          Lru.touch q k;
          model := k :: List.filter (fun x -> x <> k) !model)
        touches;
      let expect = match List.rev !model with [] -> None | k :: _ -> Some k in
      Lru.evict_candidate q ~locked:(fun _ -> false) = expect)

let () =
  Alcotest.run "phash_lru"
    [
      ( "phash",
        [
          Alcotest.test_case "insert/find/remove" `Quick test_insert_find_remove;
          Alcotest.test_case "overwrite" `Quick test_overwrite;
          Alcotest.test_case "tombstone reuse" `Quick test_tombstone_reuse;
          Alcotest.test_case "invalid key" `Quick test_invalid_key;
          Alcotest.test_case "iter" `Quick test_iter;
          QCheck_alcotest.to_alcotest model_qcheck;
        ] );
      ( "phash capacity",
        [
          Alcotest.test_case "load factors 0.5/0.9/1.0 + Overload" `Quick
            test_load_factors;
          Alcotest.test_case "transparent incremental resize" `Quick
            test_transparent_resize;
          Alcotest.test_case "resize crash sweep" `Quick test_resize_crash_sweep;
        ] );
      ( "phash durability",
        [
          Alcotest.test_case "persists across crash" `Quick test_persistence_across_crash;
          Alcotest.test_case "no half inserts" `Quick test_no_half_inserts_on_crash;
        ] );
      ( "lru",
        [
          Alcotest.test_case "order" `Quick test_lru_order;
          Alcotest.test_case "skips locked" `Quick test_lru_skips_locked;
          Alcotest.test_case "remove" `Quick test_lru_remove;
          Alcotest.test_case "remove head/tail" `Quick test_lru_remove_head_tail;
          QCheck_alcotest.to_alcotest lru_model_qcheck;
        ] );
    ]
