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

(* --- Corrupt images: open_existing raises the typed Corrupt --- *)

(* Header words (phash.ml): the magic at byte 0, the state word
   [cap | doublings << 48 | armed << 62] at byte 8, the migration cursor
   at byte 16. *)
let state_word ?(doublings = 0) ?(armed = false) cap =
  cap lor (doublings lsl 48) lor if armed then 1 lsl 62 else 0

let expect_corrupt what f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" what
  | exception Phash.Corrupt _ -> ()

(* [corrupted words] formats a 16-bucket table in a region with room for
   one doubling, overwrites the given header words, and reopens it. *)
let open_corrupted words =
  let clock = Clock.create () in
  let r =
    Region.create ~rng:(Rng.create 1) ~clock ~size:(Phash.chain_size ~capacity:16 ~doublings:1) ()
  in
  ignore (Phash.format r ~capacity:16);
  List.iter (fun (off, v) -> Region.write_int r off v) words;
  Region.persist_all r;
  Region.crash r;
  fun () -> Phash.open_existing r

let test_corrupt_magic () = expect_corrupt "bad magic" (open_corrupted [ (0, 42) ])

let test_corrupt_capacity () =
  expect_corrupt "capacity 48" (open_corrupted [ (8, state_word 48) ]);
  expect_corrupt "capacity 8" (open_corrupted [ (8, state_word 8) ]);
  expect_corrupt "capacity 0" (open_corrupted [ (8, state_word 0) ]);
  expect_corrupt "capacity 16 after a doubling (a first table of 8)"
    (open_corrupted [ (8, state_word ~doublings:1 16) ])

let test_corrupt_chain_overrun () =
  expect_corrupt "a 64-bucket table" (open_corrupted [ (8, state_word 64) ]);
  expect_corrupt "a 32-bucket table after one doubling, armed"
    (open_corrupted [ (8, state_word ~doublings:1 ~armed:true 32) ]);
  (* The region holds exactly the 16- and 32-bucket tables. *)
  Alcotest.(check int) "the largest table that fits opens" 32
    (Phash.capacity (open_corrupted [ (8, state_word ~doublings:1 32) ] ()))

let test_corrupt_cursor () =
  let armed = (8, state_word ~armed:true 16) in
  expect_corrupt "cursor -1" (open_corrupted [ armed; (16, -1) ]);
  expect_corrupt "cursor past the table" (open_corrupted [ armed; (16, 17) ]);
  Alcotest.(check int) "a cursor at the end completes the resize" 32
    (Phash.capacity (open_corrupted [ armed; (16, 16) ] ()))

(* The typed error reaches the caller of a dynamic backup's reopen. *)
let test_corrupt_through_backup () =
  let clock = Clock.create () in
  let mk size = Region.create ~rng:(Rng.create 1) ~clock ~size () in
  let main = mk 4096 and slots = mk 4096 and table = mk (Phash.required_size ~capacity:16) in
  let b =
    Kamino_core.Backup.create_dynamic ~slots ~table ~capacity:16
      ~policy:Kamino_core.Backup.Lru_policy
  in
  Kamino_core.Backup.ensure_copy b ~main ~off:64 ~len:64
    ~locked:(fun _ -> false)
    ~pressure:ignore;
  Region.write_int table 8 (state_word 48);
  Region.persist_all table;
  Region.crash table;
  expect_corrupt "Backup.reopen" (fun () -> Kamino_core.Backup.reopen b)

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

(* --- Probe hint: an insert after a find_or miss reuses its probe --- *)

(* Integral costs, so no fractional carry blurs a per-call delta, and an
   index charge far above everything else one insert can cost, so a
   delta's quotient by it counts the index charges. *)
let index_ns = 1_000_000

let hint_cost =
  {
    Kamino_nvm.Cost_model.default with
    store_overhead_ns = 3.;
    store_ns_per_byte = 1.;
    load_overhead_ns = 2.;
    load_ns_per_byte = 1.;
    flush_line_ns = 5.;
    fence_ns = 40.;
    index_ns = float_of_int index_ns;
  }

(* The publish of one new entry: value then key, each an 8-byte store and
   a one-line flush, with one fence between them. The key word's fence is
   the caller's. *)
let publish_ns = (2 * ((3 + 8) + 5)) + 40

let make_hinted ?(doublings = 0) () =
  let clock = Clock.create () in
  let r =
    Region.create ~cost:hint_cost ~rng:(Rng.create 1) ~clock
      ~size:(Phash.chain_size ~capacity:16 ~doublings) ()
  in
  (Phash.format r ~capacity:16, r)

(* [measure r f] runs [f] and returns its simulated ns and the loads,
   stores, flushed lines and fences it charged to [r]. *)
let measure r f =
  let c = Region.counters r in
  let ns0 = Clock.now (Region.clock r) in
  let l0 = c.loads and s0 = c.stores and f0 = c.lines_flushed and n0 = c.fences in
  f ();
  ( Clock.now (Region.clock r) - ns0,
    (c.loads - l0, c.stores - s0, c.lines_flushed - f0, c.fences - n0) )

let load_ns = 2 + 8

(* An insert that ignores the hint pays a full probe and one index charge:
   at least one load, and [index_ns] in its delta. *)
let check_full_probe ctx r f =
  let ns, (loads, _, _, _) = measure r f in
  Alcotest.(check int) (ctx ^ ": one index charge") 1 (ns / index_ns);
  Alcotest.(check bool) (ctx ^ ": probed") true (loads > 0)

let test_hinted_insert_cost () =
  let h, r = make_hinted () in
  for k = 1 to 6 do
    Phash.insert h ~key:(k * 1000) ~value:k
  done;
  ignore (Phash.remove h ~key:3000);
  let find_ns, (probe_loads, _, _, _) =
    measure r (fun () ->
        Alcotest.(check int) "a miss" (-1) (Phash.find_or h ~key:777 ~default:(-1)))
  in
  Alcotest.(check int) "find_or: one index charge and its probe"
    (index_ns + (probe_loads * load_ns)) find_ns;
  let ins_ns, (loads, stores, flushed, fences) =
    measure r (fun () -> Phash.insert h ~key:777 ~value:7)
  in
  Alcotest.(check (list int))
    "insert: no load; two stores, two flushed lines, one fence" [ 0; 2; 2; 1 ]
    [ loads; stores; flushed; fences ];
  Alcotest.(check int) "insert: the publish only, no index charge" publish_ns ins_ns;
  Alcotest.(check (option int)) "published" (Some 7) (Phash.find h ~key:777);
  Alcotest.(check int) "counted" 6 (Phash.count h);
  (* An eviction between the two (a take elsewhere) keeps the hint. *)
  ignore (Phash.find_or h ~key:888 ~default:(-1));
  Alcotest.(check int) "take between" 2 (Phash.take h ~key:2000);
  let ins_ns, _ = measure r (fun () -> Phash.insert h ~key:888 ~value:8) in
  Alcotest.(check int) "insert after a take: the publish only" publish_ns ins_ns;
  Alcotest.(check (option int)) "published after take" (Some 8) (Phash.find h ~key:888);
  (* The hint serves one insert: inserting the same key again probes. *)
  check_full_probe "re-insert" r (fun () -> Phash.insert h ~key:888 ~value:9);
  Alcotest.(check (option int)) "overwritten" (Some 9) (Phash.find h ~key:888)

(* A key whose probe starts at [key]'s bucket: with only [key] in a fresh
   table, its find_or miss loads two buckets instead of one. *)
let colliding_key key =
  let rec search k =
    let h, r = make_hinted () in
    Phash.insert h ~key ~value:0;
    let _, (loads, _, _, _) = measure r (fun () -> ignore (Phash.find_or h ~key:k ~default:0)) in
    if k <> key && loads = 2 then k else search (k + 1)
  in
  search 1

let test_hint_ignored () =
  (* A different key. *)
  let h, r = make_hinted () in
  ignore (Phash.find_or h ~key:5 ~default:(-1));
  check_full_probe "different key" r (fun () -> Phash.insert h ~key:6 ~value:6);
  check_full_probe "hint spent by the other insert" r (fun () -> Phash.insert h ~key:5 ~value:5);
  Alcotest.(check (list (option int))) "both present" [ Some 5; Some 6 ]
    [ Phash.find h ~key:5; Phash.find h ~key:6 ];
  (* An intervening insert into the hinted bucket. *)
  let key = 4242 in
  let other = colliding_key key in
  let h, r = make_hinted () in
  ignore (Phash.find_or h ~key ~default:(-1));
  Phash.insert h ~key:other ~value:1;
  check_full_probe "hinted bucket taken" r (fun () -> Phash.insert h ~key ~value:2);
  Alcotest.(check (list (option int))) "neither overwritten" [ Some 1; Some 2 ]
    [ Phash.find h ~key:other; Phash.find h ~key ];
  (* An armed migration: the 15th insert into 16 buckets arms a doubling
     and copies the first batch, so the table is still migrating. *)
  let h, r = make_hinted ~doublings:1 () in
  for k = 1 to 15 do
    Phash.insert h ~key:(k * 1000) ~value:k
  done;
  Alcotest.(check bool) "migrating" true (Phash.resizing h);
  ignore (Phash.find_or h ~key:99 ~default:(-1));
  check_full_probe "armed migration" r (fun () -> Phash.insert h ~key:99 ~value:99);
  Alcotest.(check (option int)) "inserted while migrating" (Some 99) (Phash.find h ~key:99);
  (* An insert that arms a resize. *)
  let h, r = make_hinted ~doublings:1 () in
  for k = 1 to 14 do
    Phash.insert h ~key:(k * 1000) ~value:k
  done;
  Alcotest.(check bool) "not yet migrating" false (Phash.resizing h);
  ignore (Phash.find_or h ~key:99 ~default:(-1));
  check_full_probe "arming insert" r (fun () -> Phash.insert h ~key:99 ~value:99);
  Alcotest.(check bool) "armed" true (Phash.resizing h);
  Alcotest.(check (option int)) "inserted while arming" (Some 99) (Phash.find h ~key:99)

(* A table whose free buckets are all tombstones still takes inserts: a
   miss that probes the whole table has proved the key absent, and reuses
   the first tombstone instead of raising [Overload]. *)
let test_insert_into_tombstoned_table () =
  let h, r = make_hinted ~doublings:1 () in
  for k = 1 to 10 do
    Phash.insert h ~key:k ~value:k
  done;
  let absent = 999_999 in
  let probe_loads () =
    let _, (loads, _, _, _) = measure r (fun () -> ignore (Phash.find h ~key:absent)) in
    loads
  in
  (* Churn fresh keys through until no bucket is empty: a miss then reads
     all 16 buckets and the first one again. *)
  let next = ref 1000 in
  while probe_loads () <= 16 do
    if !next > 100_000 then Alcotest.fail "churn never filled the empty buckets";
    Phash.insert h ~key:!next ~value:0;
    ignore (Phash.remove h ~key:!next);
    incr next
  done;
  Phash.insert h ~key:absent ~value:1;
  Alcotest.(check (option int)) "inserted" (Some 1) (Phash.find h ~key:absent);
  Alcotest.(check int) "counted" 11 (Phash.count h);
  Alcotest.(check bool) "no resize needed" false (Phash.resizing h)

(* Interleaved find_or / insert / take / remove against a Hashtbl model,
   through three doublings: find_or misses are usually followed by an
   insert of the same key, the path that reuses the probe. *)
let hint_model_qcheck =
  QCheck.Test.make ~name:"find_or/insert/take/remove match a Hashtbl model" ~count:200
    QCheck.(list_of_size Gen.(20 -- 200) (triple (int_bound 4) (int_bound 59) small_nat))
    (fun ops ->
      let h, _ = make_hinted ~doublings:3 () in
      let model = Hashtbl.create 64 in
      let expect k = Option.value (Hashtbl.find_opt model k) ~default:(-1) in
      let step_ok (op, k, v) =
        let k = k + 1 in
        match op with
        | 0 | 1 ->
            let found = Phash.find_or h ~key:k ~default:(-1) in
            let ok = found = expect k in
            if found < 0 then begin
              Phash.insert h ~key:k ~value:v;
              Hashtbl.replace model k v
            end;
            ok
        | 2 ->
            Phash.insert h ~key:k ~value:v;
            Hashtbl.replace model k v;
            true
        | 3 ->
            let taken = Phash.take h ~key:k in
            let ok = taken = expect k in
            Hashtbl.remove model k;
            ok
        | _ ->
            let removed = Phash.remove h ~key:k in
            let ok = removed = Hashtbl.mem model k in
            Hashtbl.remove model k;
            ok
      in
      let steps_ok = List.for_all step_ok ops in
      let listed = ref [] in
      Phash.iter h (fun ~key ~value -> listed := (key, value) :: !listed);
      let modelled = Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [] in
      steps_ok
      && List.for_all (fun k -> Phash.find h ~key:k = Hashtbl.find_opt model k) (List.init 60 succ)
      && List.sort compare !listed = List.sort compare modelled
      && Phash.count h = Hashtbl.length model)

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
      ( "phash probe hint",
        [
          Alcotest.test_case "insert after a find_or miss" `Quick test_hinted_insert_cost;
          Alcotest.test_case "hint ignored" `Quick test_hint_ignored;
          Alcotest.test_case "insert into a table of tombstones" `Quick
            test_insert_into_tombstoned_table;
          QCheck_alcotest.to_alcotest hint_model_qcheck;
        ] );
      ( "phash corrupt image",
        [
          Alcotest.test_case "bad magic" `Quick test_corrupt_magic;
          Alcotest.test_case "capacity not a power of two >= 16" `Quick test_corrupt_capacity;
          Alcotest.test_case "table chain overruns the region" `Quick
            test_corrupt_chain_overrun;
          Alcotest.test_case "migration cursor out of range" `Quick test_corrupt_cursor;
          Alcotest.test_case "typed through Backup.reopen" `Quick test_corrupt_through_backup;
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
