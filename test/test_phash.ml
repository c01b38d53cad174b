(* Tests for the persistent hash table and the volatile resident map (the
   LRU queue) used by the dynamic backup. *)

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

(* An insert whose bucket the caller does not keep. *)
let insert h ~key ~value = ignore (Phash.insert h ~key ~value)

let test_insert_find_remove () =
  let h, _ = make () in
  insert h ~key:100 ~value:1;
  insert h ~key:200 ~value:2;
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
  insert h ~key:5 ~value:10;
  insert h ~key:5 ~value:20;
  Alcotest.(check (option int)) "overwritten" (Some 20) (Phash.find h ~key:5);
  Alcotest.(check int) "no duplicate" 1 (Phash.count h)

let test_tombstone_reuse () =
  let h, _ = make ~capacity:16 () in
  (* Fill, delete, and re-insert repeatedly: tombstones must be reused, and
     probing must still find keys past tombstones. *)
  for round = 1 to 50 do
    for k = 1 to 12 do
      insert h ~key:(k * 1000) ~value:(round * k)
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
       insert h ~key:0 ~value:1;
       false
     with Invalid_argument _ -> true)

let test_persistence_across_crash () =
  let h, r = make () in
  insert h ~key:11 ~value:101;
  insert h ~key:22 ~value:202;
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
    insert h ~key:7 ~value:70;
    (* A second insert that may tear. *)
    (try insert h ~key:9 ~value:90 with _ -> ());
    Region.crash r;
    let h' = Phash.open_existing r in
    Alcotest.(check (option int)) "stable entry intact" (Some 70) (Phash.find h' ~key:7);
    match Phash.find h' ~key:9 with
    | None -> ()
    | Some v -> Alcotest.(check int) "published value correct" 90 v
  done

(* --- Corrupt images: open_existing raises the typed Region.Corrupt --- *)

let expect_corrupt what f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" what
  | exception Region.Corrupt { structure = "Phash"; _ } -> ()

(* [corrupted words] formats a 16-bucket table in a region with room for
   32 buckets, overwrites the given header words, and reopens it. The
   magic is at byte 0, and the state word, which holds the capacity, at
   byte 8. *)
let open_corrupted words =
  let clock = Clock.create () in
  let r =
    Region.create ~rng:(Rng.create 1) ~clock ~size:(Phash.required_size ~capacity:32) ()
  in
  ignore (Phash.format r ~capacity:16);
  List.iter (fun (off, v) -> Region.write_int r off v) words;
  Region.persist_all r;
  Region.crash r;
  fun () -> Phash.open_existing r

let test_corrupt_magic () = expect_corrupt "bad magic" (open_corrupted [ (0, 42) ])

let test_corrupt_capacity () =
  expect_corrupt "capacity 48" (open_corrupted [ (8, 48) ]);
  expect_corrupt "capacity 8" (open_corrupted [ (8, 8) ]);
  expect_corrupt "capacity 0" (open_corrupted [ (8, 0) ]);
  expect_corrupt "capacity -16" (open_corrupted [ (8, -16) ]);
  (* The state word holds the capacity and nothing else. *)
  expect_corrupt "capacity 16 with bit 48 set" (open_corrupted [ (8, 16 lor (1 lsl 48)) ]);
  expect_corrupt "capacity 16 with bit 62 set" (open_corrupted [ (8, 16 lor (1 lsl 62)) ]);
  Alcotest.(check int) "byte 16 is not read" 16 (Phash.capacity (open_corrupted [ (16, -1) ] ()))

let test_corrupt_overrun () =
  expect_corrupt "a 64-bucket table" (open_corrupted [ (8, 64) ]);
  expect_corrupt "a 2^60-bucket table" (open_corrupted [ (8, 1 lsl 60) ]);
  (* The region holds exactly 32 buckets. *)
  Alcotest.(check int) "the largest table that fits opens" 32
    (Phash.capacity (open_corrupted [ (8, 32) ] ()))

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
  Region.write_int table 8 48;
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
              insert h ~key:k ~value:v;
              Hashtbl.replace model k v
          | None ->
              ignore (Phash.remove h ~key:k);
              Hashtbl.remove model k)
        ops;
      Hashtbl.fold (fun k v acc -> acc && Phash.find h ~key:k = Some v) model true
      && Phash.count h = Hashtbl.length model)

(* --- Capacity: overload --- *)

(* The table serves load factors 0.5 and 0.9 correctly, fills to 1.0,
   and the insert past full raises the typed [Overload] — never a silent
   wedge or a string failwith. *)
let test_load_factors () =
  let capacity = 64 in
  let check_load h n =
    for k = 1 to n do
      insert h ~key:(k * 7919) ~value:k
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
  match Phash.insert h ~key:999_999 ~value:1 with
  | _ -> Alcotest.fail "insert past capacity must raise Overload"
  | exception Phash.Overload { capacity = c; count } ->
      Alcotest.(check int) "overload capacity" capacity c;
      Alcotest.(check int) "overload count" capacity count

let test_iter () =
  let h, _ = make () in
  insert h ~key:1 ~value:10;
  insert h ~key:2 ~value:20;
  let acc = ref [] in
  Phash.iter h (fun ~key ~value ~bucket:_ -> acc := (key, value) :: !acc);
  Alcotest.(check (list (pair int int))) "all entries" [ (1, 10); (2, 20) ]
    (List.sort compare !acc)

(* --- Bucket-addressed takes --- *)

(* Integral costs, so no fractional carry blurs a per-call delta, and an
   index charge far above everything else one call can cost, so a delta's
   quotient by it counts the index charges. *)
let index_ns = 1_000_000

let unit_cost =
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

let make_costed () =
  let clock = Clock.create () in
  let r =
    Region.create ~cost:unit_cost ~rng:(Rng.create 1) ~clock
      ~size:(Phash.required_size ~capacity:16) ()
  in
  (Phash.format r ~capacity:16, r)

(* [measure r f] runs [f] and returns its result, its simulated ns and the
   loads, stores, flushed lines and fences it charged to [r]. *)
let measure r f =
  let c = Region.counters r in
  let ns0 = Clock.now (Region.clock r) in
  let l0 = c.loads and s0 = c.stores and f0 = c.lines_flushed and n0 = c.fences in
  let v = f () in
  ( v,
    Clock.now (Region.clock r) - ns0,
    (c.loads - l0, c.stores - s0, c.lines_flushed - f0, c.fences - n0) )

let load_ns = 2 + 8

(* Two tables built by the same inserts, so a [take] on one and a
   [take_at] on the other can be compared byte for byte. Each build ends
   with a fence, so that neither starts with flushed lines that only a
   later fence (the other build's) makes durable. *)
let twin_tables keys =
  let build () =
    let h, r = make_costed () in
    let buckets = List.map (fun k -> (k, Phash.insert h ~key:k ~value:(k / 1000))) keys in
    Region.fence r;
    (h, r, buckets)
  in
  (build (), build ())

let test_take_at_valid_bucket () =
  let (h, r, buckets), (h', r', _) = twin_tables (List.init 6 (fun i -> (i + 1) * 1000)) in
  let bucket = List.assoc 4000 buckets in
  Alcotest.(check bool) "insert returned a bucket" true (bucket >= 0);
  let v, ns, (loads, stores, flushed, fences) =
    measure r (fun () -> Phash.take_at h ~key:4000 ~bucket)
  in
  let v', ns', (loads', stores', flushed', fences') =
    measure r' (fun () -> Phash.take h' ~key:4000)
  in
  Alcotest.(check (list int)) "same value" [ 4; 4 ] [ v; v' ];
  Alcotest.(check int) "take_at: two loads" 2 loads;
  Alcotest.(check int) "take_at: no index charge" 0 (ns / index_ns);
  Alcotest.(check int) "the difference is take's index charge and extra probe loads"
    (index_ns + ((loads' - loads) * load_ns))
    (ns' - ns);
  Alcotest.(check (list int)) "same stores, flushed lines, fences" [ stores'; flushed'; fences' ]
    [ stores; flushed; fences ];
  Alcotest.(check string) "same bytes, volatile and persistent" (Region.digest r')
    (Region.digest r);
  Alcotest.(check int) "counted" (Phash.count h') (Phash.count h);
  Alcotest.(check (option int)) "gone" None (Phash.find h ~key:4000)

(* [take_at] with a bucket that is not its key's — not a bucket of the
   table, not aligned to one, or another key's — is [take]: one index
   charge, and the same bytes, value and writes as [take] on a twin. Only
   a bucket of the table costs the load that checks its key word first.
   The other key's entry is untouched. *)
let test_take_at_stale_bucket () =
  let keys = List.init 6 (fun i -> (i + 1) * 1000) in
  List.iter
    (fun (what, checked, bucket_of) ->
      let (h, r, buckets), (h', r', _) = twin_tables keys in
      let bucket = bucket_of buckets in
      let v, ns, (_, stores, flushed, fences) =
        measure r (fun () -> Phash.take_at h ~key:4000 ~bucket)
      in
      let v', ns', (_, stores', flushed', fences') =
        measure r' (fun () -> Phash.take h' ~key:4000)
      in
      Alcotest.(check int) (what ^ ": one index charge") 1 (ns / index_ns);
      Alcotest.(check (list int))
        (what ^ ": take's value and writes, and the key check's load")
        [ v'; ns' + (checked * load_ns); stores'; flushed'; fences' ]
        [ v; ns; stores; flushed; fences ];
      Alcotest.(check int) (what ^ ": value") 4 v;
      Alcotest.(check string) (what ^ ": same bytes") (Region.digest r') (Region.digest r);
      Alcotest.(check (option int)) (what ^ ": gone") None (Phash.find h ~key:4000);
      Alcotest.(check (option int)) (what ^ ": the other key stays") (Some 2)
        (Phash.find h ~key:2000))
    [
      ("bucket -1", 0, fun _ -> -1);
      ("past the table", 0, fun _ -> 64 + (16 * 16));
      ("below the table", 0, fun _ -> 48);
      ("not aligned", 0, fun b -> List.assoc 4000 b + 8);
      ("another key's bucket", 1, List.assoc 2000);
    ];
  (* The key's own bucket, after a fenced take: the key is absent, and
     [take_at] writes nothing. *)
  let (h, r, buckets), _ = twin_tables keys in
  let bucket = List.assoc 4000 buckets in
  ignore (Phash.remove h ~key:4000);
  let digest = Region.digest r in
  let v, _, (_, stores, flushed, fences) =
    measure r (fun () -> Phash.take_at h ~key:4000 ~bucket)
  in
  Alcotest.(check int) "tombstoned bucket: absent" (-1) v;
  Alcotest.(check (list int)) "tombstoned bucket: no writes" [ 0; 0; 0 ] [ stores; flushed; fences ];
  Alcotest.(check string) "tombstoned bucket: same bytes" digest (Region.digest r)

(* A tombstone not yet fenced keeps its bucket from a new entry: a crash
   could otherwise pair the old key word with the new value word. *)
let test_fresh_tombstone_not_reused () =
  let reinsert ~fenced =
    let h, _ = make_costed () in
    let first = Phash.insert h ~key:5000 ~value:1 in
    Alcotest.(check int) "taken" 1 (Phash.take h ~key:5000);
    if fenced then Phash.fence h;
    (first, Phash.insert h ~key:5000 ~value:2)
  in
  let first, again = reinsert ~fenced:false in
  Alcotest.(check bool) "unfenced: another bucket" true (first <> again);
  let first, again = reinsert ~fenced:true in
  Alcotest.(check int) "fenced: the tombstone is reused" first again

(* A table whose free buckets are all tombstones still takes inserts: a
   miss that probes the whole table has proved the key absent, and reuses
   the first tombstone instead of raising [Overload]. *)
let test_insert_into_tombstoned_table () =
  let h, r = make_costed () in
  for k = 1 to 10 do
    insert h ~key:k ~value:k
  done;
  let absent = 999_999 in
  let probe_loads () =
    let _, _, (loads, _, _, _) = measure r (fun () -> ignore (Phash.find h ~key:absent)) in
    loads
  in
  (* Churn fresh keys through until no bucket is empty: a miss then reads
     all 16 buckets and the first one again. *)
  let next = ref 1000 in
  while probe_loads () <= 16 do
    if !next > 100_000 then Alcotest.fail "churn never filled the empty buckets";
    insert h ~key:!next ~value:0;
    ignore (Phash.remove h ~key:!next);
    incr next
  done;
  insert h ~key:absent ~value:1;
  Alcotest.(check (option int)) "inserted" (Some 1) (Phash.find h ~key:absent);
  Alcotest.(check int) "counted" 11 (Phash.count h)

(* A full table's only answer is [Overload], and the insert that raises
   it writes nothing: the dynamic backup evicts and retries on the same
   table, so a failed attempt must leave no store, flush or fence behind.
   A bucket tombstoned since the last fence counts as full until the
   table fences; an overwrite needs no free bucket. *)
let test_overload_writes_nothing () =
  let h, r = make_costed () in
  let buckets = List.init 16 (fun i -> Phash.insert h ~key:((i + 1) * 1000) ~value:i) in
  let refused what key =
    let digest = Region.digest r in
    let outcome, _, (_, stores, flushed, fences) =
      measure r (fun () ->
          match Phash.insert h ~key ~value:7 with
          | _ -> None
          | exception Phash.Overload { capacity; count } -> Some (capacity, count))
    in
    Alcotest.(check (option (pair int int))) (what ^ ": Overload") (Some (16, Phash.count h)) outcome;
    Alcotest.(check (list int)) (what ^ ": no store, flush or fence") [ 0; 0; 0 ]
      [ stores; flushed; fences ];
    Alcotest.(check string) (what ^ ": same bytes") digest (Region.digest r)
  in
  refused "sixteen live entries" 99_000;
  Alcotest.(check int) "an overwrite in a full table" (List.nth buckets 4)
    (Phash.insert h ~key:5000 ~value:55);
  Alcotest.(check (option int)) "overwritten" (Some 55) (Phash.find h ~key:5000);
  Alcotest.(check int) "taken" 8 (Phash.take h ~key:9000);
  refused "fifteen live entries and a fresh tombstone" 99_000;
  Phash.fence h;
  Alcotest.(check int) "after the fence the tombstone takes it" (List.nth buckets 8)
    (Phash.insert h ~key:99_000 ~value:7);
  Alcotest.(check int) "full again" 16 (Phash.count h);
  refused "full again" 98_000

(* Interleaved find / insert / take / take_at / remove against a Hashtbl
   model, on a 16-bucket table and 60 keys, so the table often fills.
   [take_at] uses the bucket captured at the key's last insert, and every
   insert's bucket is checked against where the entry lives. The model
   counts the tombstones written since the table's last fence: an insert
   of an absent key raises [Overload] exactly when they and the live
   entries fill every bucket. *)
let bucket_model_qcheck =
  QCheck.Test.make ~name:"find/insert/take/take_at/remove match a Hashtbl model" ~count:200
    QCheck.(list_of_size Gen.(20 -- 200) (triple (int_bound 4) (int_bound 59) small_nat))
    (fun ops ->
      let h, _ = make_costed () in
      let model = Hashtbl.create 64 and captured = Hashtbl.create 64 in
      let fresh = ref 0 in
      let expect k = Option.value (Hashtbl.find_opt model k) ~default:(-1) in
      let forget k =
        if Hashtbl.mem model k then incr fresh;
        Hashtbl.remove model k;
        Hashtbl.remove captured k
      in
      let step_ok (op, k, v) =
        let k = k + 1 in
        match op with
        | 0 -> Phash.find h ~key:k = Hashtbl.find_opt model k
        | 1 -> (
            let full = (not (Hashtbl.mem model k)) && Hashtbl.length model + !fresh = 16 in
            match Phash.insert h ~key:k ~value:v with
            | b ->
                Hashtbl.replace model k v;
                Hashtbl.replace captured k b;
                fresh := 0;
                let lives_at =
                  List.find_map
                    (fun (k', _, b') -> if k' = k then Some b' else None)
                    (Phash.entries h)
                in
                (not full) && lives_at = Some b
            | exception Phash.Overload { capacity = 16; count } ->
                full && count = Hashtbl.length model)
        | 2 ->
            let ok = Phash.take h ~key:k = expect k in
            forget k;
            ok
        | 3 ->
            let bucket = Option.value (Hashtbl.find_opt captured k) ~default:(-1) in
            let ok = Phash.take_at h ~key:k ~bucket = expect k in
            forget k;
            ok
        | _ ->
            let found = Hashtbl.mem model k in
            let ok = Phash.remove h ~key:k = found in
            (* A remove that finds its key fences. *)
            if found then fresh := 0;
            Hashtbl.remove model k;
            Hashtbl.remove captured k;
            ok
      in
      let steps_ok = List.for_all step_ok ops in
      let listed = ref [] in
      Phash.iter h (fun ~key ~value ~bucket:_ -> listed := (key, value) :: !listed);
      let modelled = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []) in
      steps_ok
      && List.for_all (fun k -> Phash.find h ~key:k = Hashtbl.find_opt model k) (List.init 60 succ)
      && List.sort compare !listed = modelled
      && List.map (fun (k, v, _) -> (k, v)) (Phash.entries h) = modelled
      && Phash.count h = Hashtbl.length model)

(* Crash at every fence of every step of a script that fills a 16-bucket
   table through takes and tombstone reuse, under both crash modes. Each
   step ends with the table's fence, so it is atomic: the reopened table
   holds exactly the entries before or after it. The reopened table must
   then fill to exactly 16 live entries before [Overload]: its count is
   rebuilt, and no bucket is lost to a tombstone the crash left. *)
type sweep_state = { r : Region.t; mutable h : Phash.t }

let full_table_script =
  List.init 12 (fun k -> `Insert (k + 1))
  @ [ `Take 3; `Take 7; `Remove 11 ]
  @ List.init 7 (fun k -> `Insert (k + 13))
  @ [ `Overwrite 1 ]

let test_full_table_crash_sweep () =
  let key k = k * 4093 in
  let apply s step =
    (match step with
    | `Insert k -> ignore (Phash.insert s.h ~key:(key k) ~value:(k * 3))
    | `Overwrite k -> ignore (Phash.insert s.h ~key:(key k) ~value:(k * 5))
    | `Take k -> ignore (Phash.take s.h ~key:(key k))
    | `Remove k -> ignore (Phash.remove s.h ~key:(key k)));
    Phash.fence s.h
  in
  let observe s =
    let show (k, v, _) = Printf.sprintf "%d:%d" k v in
    Printf.sprintf "count=%d entries=[%s]" (Phash.count s.h)
      (String.concat " " (List.map show (Phash.entries s.h)))
  in
  let fill_to_full ctx s =
    let next = ref 100 in
    while Phash.count s.h < 16 do
      if Phash.find s.h ~key:(key !next) = None then
        ignore (Phash.insert s.h ~key:(key !next) ~value:!next);
      incr next
    done;
    (match Phash.insert s.h ~key:(key 999) ~value:1 with
    | _ -> Alcotest.failf "%s: a 17th entry fit" ctx
    | exception Phash.Overload { count; _ } -> Alcotest.(check int) (ctx ^ ": full") 16 count);
    Alcotest.(check int) (ctx ^ ": every entry listed") 16 (List.length (Phash.entries s.h))
  in
  List.iter
    (fun (mode_name, crash_mode) ->
      List.iter
        (fun seed ->
          List.iteri
            (fun i step ->
              let setup () =
                let r =
                  Region.create ~crash_mode ~rng:(Rng.create (seed + (i * 97)))
                    ~clock:(Clock.create ()) ~size:(Phash.required_size ~capacity:16) ()
                in
                let s = { r; h = Phash.format r ~capacity:16 } in
                List.iteri (fun j step -> if j < i then apply s step) full_table_script;
                s
              in
              let ctx = Printf.sprintf "%s seed=%d step %d" mode_name seed i in
              ignore
                (Fence_sweep.sweep ~ctx ~setup
                   ~crash:(fun s -> Region.crash s.r)
                   ~recover:(fun s -> s.h <- Phash.open_existing s.r)
                   ~op:(fun s -> apply s step)
                   ~drain:ignore ~observe
                   ~check:(fun _ _ -> ())
                   ~on_crash:(fun s n -> fill_to_full (Printf.sprintf "%s fence %d" ctx n) s)
                   ()))
            full_table_script)
        [ 1; 2 ])
    [ ("drop-unflushed", Region.Drop_unflushed); ("words-survive", Region.Words_survive_randomly) ]

(* --- LRU --- *)

let unlocked _ = false

let add_all q = List.iter (fun k -> Lru.add q k ~slot:(k * 10) ~bucket:(k * 100))

let candidate q ~locked = Option.map Lru.key (Lru.evict_candidate q ~locked)

let test_lru_order () =
  let q = Lru.create () in
  add_all q [ 1; 2; 3 ];
  Alcotest.(check (option int)) "LRU is 1" (Some 1) (candidate q ~locked:unlocked);
  Lru.touch q (Lru.find q 1);
  (* 1 becomes MRU; 2 is now LRU *)
  Alcotest.(check (option int)) "after touch LRU is 2" (Some 2) (candidate q ~locked:unlocked)

let test_lru_skips_locked () =
  let q = Lru.create () in
  add_all q [ 1; 2; 3 ];
  Alcotest.(check (option int)) "skips locked LRU" (Some 2) (candidate q ~locked:(fun k -> k = 1));
  Alcotest.(check (option int)) "all locked" None (candidate q ~locked:(fun _ -> true))

let test_lru_remove () =
  let q = Lru.create () in
  add_all q [ 1; 2; 3 ];
  Lru.remove q (Lru.find q 2);
  Alcotest.(check int) "length" 2 (Lru.length q);
  Alcotest.(check bool) "gone" true
    (match Lru.find q 2 with _ -> false | exception Not_found -> true);
  let order = ref [] in
  Lru.iter q (fun n -> order := Lru.key n :: !order);
  Alcotest.(check (list int)) "remaining order (MRU first)" [ 3; 1 ] !order

let test_lru_remove_head_tail () =
  let q = Lru.create () in
  add_all q [ 1; 2; 3 ];
  Lru.remove q (Lru.find q 3);
  (* MRU *)
  Lru.remove q (Lru.find q 1);
  (* LRU *)
  Alcotest.(check (option int)) "middle remains" (Some 2) (candidate q ~locked:unlocked);
  Lru.remove q (Lru.find q 2);
  Alcotest.(check (option int)) "empty" None (candidate q ~locked:unlocked);
  Alcotest.(check int) "length" 0 (Lru.length q)

(* A node keeps the slot word and bucket it was added with, through
   touches and the removal of its neighbours. *)
let test_lru_node_words () =
  let q = Lru.create () in
  add_all q [ 1; 2; 3 ];
  let n = Lru.find q 2 in
  Alcotest.(check (list int)) "key, slot, bucket" [ 2; 20; 200 ]
    [ Lru.key n; Lru.slot n; Lru.bucket n ];
  Lru.touch q (Lru.find q 1);
  Lru.remove q (Lru.find q 3);
  Alcotest.(check (list int)) "words kept" [ 10; 100; 20; 200 ]
    [
      Lru.slot (Lru.find q 1); Lru.bucket (Lru.find q 1); Lru.slot (Lru.find q 2);
      Lru.bucket (Lru.find q 2);
    ]

let lru_model_qcheck =
  QCheck.Test.make ~name:"lru eviction order matches a list model" ~count:100
    QCheck.(small_list (int_range 0 9))
    (fun touches ->
      let q = Lru.create () in
      let model = ref [] in
      List.iter
        (fun k ->
          (match Lru.find q k with
          | n -> Lru.touch q n
          | exception Not_found -> Lru.add q k ~slot:k ~bucket:(-1));
          model := k :: List.filter (fun x -> x <> k) !model)
        touches;
      let expect = match List.rev !model with [] -> None | k :: _ -> Some k in
      candidate q ~locked:unlocked = expect)

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
        ] );
      ( "phash capacity",
        [
          Alcotest.test_case "load factors 0.5/0.9/1.0 + Overload" `Quick
            test_load_factors;
          Alcotest.test_case "Overload writes nothing" `Quick test_overload_writes_nothing;
        ] );
      ( "phash buckets",
        [
          Alcotest.test_case "take_at a valid bucket" `Quick test_take_at_valid_bucket;
          Alcotest.test_case "fresh tombstone not reused" `Quick
            test_fresh_tombstone_not_reused;
          Alcotest.test_case "insert into a table of tombstones" `Quick
            test_insert_into_tombstoned_table;
          Alcotest.test_case "take_at with a stale bucket" `Quick test_take_at_stale_bucket;
        ] );
      ( "phash corrupt image",
        [
          Alcotest.test_case "bad magic" `Quick test_corrupt_magic;
          Alcotest.test_case "capacity not a power of two >= 16" `Quick test_corrupt_capacity;
          Alcotest.test_case "buckets overrun the region" `Quick test_corrupt_overrun;
          Alcotest.test_case "typed through Backup.reopen" `Quick test_corrupt_through_backup;
        ] );
      ( "phash durability",
        [
          Alcotest.test_case "persists across crash" `Quick test_persistence_across_crash;
          Alcotest.test_case "no half inserts" `Quick test_no_half_inserts_on_crash;
          Alcotest.test_case "crash sweep up to a full table" `Quick
            test_full_table_crash_sweep;
        ] );
      ( "lru",
        [
          Alcotest.test_case "order" `Quick test_lru_order;
          Alcotest.test_case "skips locked" `Quick test_lru_skips_locked;
          Alcotest.test_case "remove" `Quick test_lru_remove;
          Alcotest.test_case "remove head/tail" `Quick test_lru_remove_head_tail;
          Alcotest.test_case "node words" `Quick test_lru_node_words;
        ] );
      ( "qcheck",
        [
          QCheck_alcotest.to_alcotest model_qcheck;
          QCheck_alcotest.to_alcotest bucket_model_qcheck;
          QCheck_alcotest.to_alcotest lru_model_qcheck;
        ] );
    ]
