(* Tests for the simulated NVM region: persistence semantics, cache-line
   dirty tracking, crash behaviour, and cost accounting. *)

module Rng = Kamino_sim.Rng
module Clock = Kamino_sim.Clock
module Region = Kamino_nvm.Region
module Cost_model = Kamino_nvm.Cost_model
module Commit_marker = Kamino_nvm.Commit_marker

let make ?(crash_mode = Region.Drop_unflushed) ?(size = 4096) ?(seed = 1) () =
  let clock = Clock.create () in
  let r = Region.create ~crash_mode ~rng:(Rng.create seed) ~clock ~size () in
  (r, clock)

let test_read_write_roundtrip () =
  let r, _ = make () in
  Region.write_int64 r 0 0x0123456789ABCDEFL;
  Alcotest.(check int64) "int64" 0x0123456789ABCDEFL (Region.read_int64 r 0);
  Region.write_int32 r 8 0x7FEDCBA9l;
  Alcotest.(check int32) "int32" 0x7FEDCBA9l (Region.read_int32 r 8);
  Region.write_int r 16 123456789;
  Alcotest.(check int) "int" 123456789 (Region.read_int r 16);
  Region.write_byte r 24 0xAB;
  Alcotest.(check int) "byte" 0xAB (Region.read_byte r 24);
  Region.write_string r 32 "hello nvm";
  Alcotest.(check string) "string" "hello nvm" (Region.read_string r 32 9)

let test_bounds_checked () =
  let r, _ = make ~size:128 () in
  Alcotest.(check bool) "write oob raises" true
    (try
       Region.write_int64 r 124 1L;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "read oob raises" true
    (try
       ignore (Region.read_bytes r 120 16);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative offset raises" true
    (try
       ignore (Region.read_int64 r (-8));
       false
     with Invalid_argument _ -> true);
  (* [off + len] would wrap past max_int: the range check itself refuses
     the read, not [Bytes.sub] after it. *)
  let r, _ = make ~size:4096 () in
  Alcotest.check_raises "a length near max_int"
    (Invalid_argument
       (Printf.sprintf "Region.read: range [96,+%d) out of bounds (size 4096)" max_int))
    (fun () -> ignore (Region.read_bytes r 96 max_int))

let test_unflushed_lost_on_crash () =
  let r, _ = make () in
  Region.write_int64 r 0 42L;
  Region.crash r;
  Alcotest.(check int64) "unflushed write lost" 0L (Region.read_int64 r 0)

let test_persisted_survives_crash () =
  let r, _ = make () in
  Region.write_int64 r 0 42L;
  Region.persist r 0 8;
  Region.write_int64 r 64 7L;
  (* second write unflushed *)
  Region.crash r;
  Alcotest.(check int64) "persisted survives" 42L (Region.read_int64 r 0);
  Alcotest.(check int64) "unflushed dropped" 0L (Region.read_int64 r 64)

let test_flush_is_line_granular () =
  let r, _ = make () in
  (* Two writes to the same 64 B line: flushing any byte of the line
     persists both. *)
  Region.write_int64 r 0 1L;
  Region.write_int64 r 8 2L;
  Region.flush r 0 1;
  Region.fence r;
  Region.crash r;
  Alcotest.(check int64) "first word" 1L (Region.read_int64 r 0);
  Alcotest.(check int64) "second word same line" 2L (Region.read_int64 r 8)

(* A flushed line is pending until a fence: a crash before the fence
   drops it (Drop_unflushed), a fence on any region of the domain makes
   it durable, and a store after the flush does not change what the
   fence makes durable. *)
let test_flush_pending_until_fence () =
  let r, _ = make () and other, _ = make ~seed:2 () in
  Region.write_int64 r 0 7L;
  Region.flush r 0 8;
  Alcotest.(check bool) "pending is not persisted" false (Region.is_persisted r 0 8);
  Alcotest.(check int) "pending is not dirty" 0 (Region.dirty_lines r);
  Region.crash r;
  Alcotest.(check int64) "flushed, unfenced: lost" 0L (Region.read_int64 r 0);
  Region.write_int64 r 0 7L;
  Region.flush r 0 8;
  Region.fence other;
  Alcotest.(check bool) "another region's fence commits it" true (Region.is_persisted r 0 8);
  Region.crash r;
  Alcotest.(check int64) "flushed, fenced: kept" 7L (Region.read_int64 r 0);
  Region.write_int64 r 0 8L;
  Region.flush r 0 8;
  Region.write_int64 r 8 9L;
  Region.fence r;
  Alcotest.(check bool) "the later store is still dirty" false (Region.is_persisted r 0 16);
  Region.crash r;
  Alcotest.(check (pair int64 int64)) "the fence kept what the flush wrote back" (8L, 0L)
    (Region.read_int64 r 0, Region.read_int64 r 8)

let test_is_persisted () =
  let r, _ = make () in
  Region.write_int64 r 0 1L;
  Alcotest.(check bool) "dirty before flush" false (Region.is_persisted r 0 8);
  Region.persist r 0 8;
  Alcotest.(check bool) "clean after flush" true (Region.is_persisted r 0 8);
  Alcotest.(check bool) "empty range is persisted" true (Region.is_persisted r 0 0)

let test_dirty_lines_counted () =
  let r, _ = make () in
  Alcotest.(check int) "initially clean" 0 (Region.dirty_lines r);
  Region.write_int64 r 0 1L;
  Region.write_int64 r 100 1L;
  Alcotest.(check int) "two dirty lines" 2 (Region.dirty_lines r);
  Region.flush_all r;
  Alcotest.(check int) "clean after flush_all" 0 (Region.dirty_lines r)

let test_crash_word_granularity () =
  (* With Words_survive_randomly, over many trials, an unflushed dirty word
     sometimes survives and sometimes does not. *)
  let survived = ref 0 and lost = ref 0 in
  for seed = 1 to 64 do
    let r, _ = make ~crash_mode:Region.Words_survive_randomly ~seed () in
    Region.write_int64 r 0 99L;
    Region.crash r;
    if Region.read_int64 r 0 = 99L then incr survived else incr lost
  done;
  Alcotest.(check bool) "some survive" true (!survived > 0);
  Alcotest.(check bool) "some are lost" true (!lost > 0)

let test_crash_never_invents_data () =
  (* Whatever the crash mode, post-crash contents of each word must equal
     either the pre-crash volatile value or the last persisted value. *)
  let r, _ = make ~crash_mode:Region.Words_survive_randomly ~size:1024 ~seed:9 () in
  let rng = Rng.create 77 in
  Region.write_int64 r 0 1L;
  Region.persist r 0 8;
  for _ = 1 to 200 do
    let off = Rng.int rng 128 * 8 in
    Region.write_int64 r off (Rng.int64 rng)
  done;
  let volatile = Array.init 128 (fun i -> Region.read_int64 r (i * 8)) in
  Region.crash r;
  for i = 0 to 127 do
    let v = Region.read_int64 r (i * 8) in
    let ok = v = volatile.(i) || v = 0L || (i = 0 && v = 1L) in
    Alcotest.(check bool) "word is old or new, never garbage" true ok
  done

let test_copy_between () =
  let src, _ = make () in
  let clock = Clock.create () in
  let dst =
    Region.create ~crash_mode:Region.Drop_unflushed ~rng:(Rng.create 2) ~clock ~size:4096 ()
  in
  Region.write_string src 10 "payload";
  Region.copy_between ~src ~src_off:10 ~dst ~dst_off:200 ~len:7;
  Alcotest.(check string) "copied" "payload" (Region.read_string dst 200 7);
  Alcotest.(check bool) "copy dirties destination" false (Region.is_persisted dst 200 7)

let test_blit_within () =
  let r, _ = make () in
  Region.write_string r 0 "abcdef";
  Region.blit r ~src:0 ~dst:100 ~len:6;
  Alcotest.(check string) "blit copies" "abcdef" (Region.read_string r 100 6)

let test_costs_charged () =
  let r, clock = make () in
  let t0 = Clock.now clock in
  Region.write_int64 r 0 1L;
  let t1 = Clock.now clock in
  Alcotest.(check bool) "store charged" true (t1 > t0);
  Region.persist r 0 8;
  let t2 = Clock.now clock in
  let c = Region.cost_model r in
  Alcotest.(check bool) "flush+fence charged at least model cost" true
    (float_of_int (t2 - t1) >= c.Cost_model.flush_line_ns);
  (* a fence alone charges fence_ns *)
  let t3 = Clock.now clock in
  Region.fence r;
  Alcotest.(check bool) "fence charged" true
    (float_of_int (Clock.now clock - t3) >= c.Cost_model.fence_ns -. 1.0)

(* A length-prefixed record is one load of [8 + len] bytes: the bytes the
   two-load form (length word, then payload) loads, one load overhead
   fewer. A length outside [0, max] is refused after loading the word. *)
(* [hash_range]: one charged load of [len] bytes, no allocation, a pure
   function of the volatile bytes and the length, and every byte counts,
   unaligned tails included. *)
let test_hash_range () =
  let r, clock = make () in
  for i = 0 to 255 do
    Region.write_byte r i (i * 13)
  done;
  Region.reset_counters r;
  let t0 = Clock.now clock in
  let words0 = Gc.minor_words () in
  let h = Region.hash_range r 3 101 17 in
  let words = Gc.minor_words () -. words0 in
  let c = Region.counters r in
  Alcotest.(check (pair int int)) "one load of len bytes" (1, 101) (c.Region.loads, c.Region.bytes_loaded);
  Alcotest.(check int) "charged as that load"
    (int_of_float (Cost_model.load_cost (Region.cost_model r) 101))
    (Clock.now clock - t0);
  Alcotest.(check bool) "allocates nothing" true (words = 0.);
  Alcotest.(check int) "deterministic" h (Region.hash_range r 3 101 17);
  Alcotest.(check bool) "seeded" true (h <> Region.hash_range r 3 101 18);
  Alcotest.(check bool) "keyed by length" true
    (Region.hash_range r 3 100 17 <> Region.hash_range r 3 101 17);
  List.iter
    (fun off ->
      Region.write_byte r off 0xEE;
      Alcotest.(check bool) (Printf.sprintf "byte %d counts" off) true
        (h <> Region.hash_range r 3 101 17);
      Region.write_byte r off (off * 13))
    [ 3; 50; 96; 103 ];
  Alcotest.(check int) "restored" h (Region.hash_range r 3 101 17);
  (* Byte 10 (130) is the top byte of a word: its top bit alone counts. *)
  Region.write_byte r 10 (130 lxor 0x80);
  Alcotest.(check bool) "a word's top bit counts" true (h <> Region.hash_range r 3 101 17);
  Region.write_byte r 10 130;
  Alcotest.(check bool) "out of bounds raises" true
    (try
       ignore (Region.hash_range r 4090 16 0);
       false
     with Invalid_argument _ -> true)

let test_read_prefixed () =
  let one, one_clock = make () and two, two_clock = make () in
  let name = String.init 32 (fun i -> Char.chr (65 + (i mod 26))) in
  List.iter
    (fun r ->
      Region.write_int r 64 (String.length name);
      Region.write_string r 72 name;
      Region.reset_counters r)
    [ one; two ];
  let t1 = Clock.now one_clock and t2 = Clock.now two_clock in
  Alcotest.(check string) "record" name (Region.read_prefixed one 64 ~max:40);
  let len = Region.read_int two 64 in
  Alcotest.(check string) "two-load form" name (Region.read_string two 72 len);
  let c1 = Region.counters one and c2 = Region.counters two in
  Alcotest.(check int) "one load" 1 c1.Region.loads;
  Alcotest.(check int) "two loads" 2 c2.Region.loads;
  Alcotest.(check int) "same bytes" c2.Region.bytes_loaded c1.Region.bytes_loaded;
  Alcotest.(check int) "8 + len bytes" 40 c1.Region.bytes_loaded;
  let overhead = int_of_float (Region.cost_model one).Cost_model.load_overhead_ns in
  Alcotest.(check int) "one load overhead saved"
    (Clock.now two_clock - t2 - overhead)
    (Clock.now one_clock - t1);
  Region.write_int one 0 0;
  Alcotest.(check string) "empty record" "" (Region.read_prefixed one 0 ~max:40);
  let refused len =
    Region.write_int one 0 len;
    Region.reset_counters one;
    (match Region.read_prefixed one 0 ~max:40 with
    | s -> Alcotest.failf "length %d read %S" len s
    | exception Region.Corrupt { structure; off; what } ->
        Alcotest.(check (list string)) "refusal fields"
          [ "record"; "0"; Printf.sprintf "length %d outside [0, 40]" len ]
          [ structure; string_of_int off; what ]);
    Alcotest.(check (pair int int)) "the word's load only" (1, 8)
      ((Region.counters one).Region.loads, (Region.counters one).Region.bytes_loaded)
  in
  refused 41;
  refused (-1);
  Region.write_int one 4080 16;
  Alcotest.(check bool) "past the region's end" true
    (match Region.read_prefixed one 4080 ~max:40 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_clock_switch () =
  let r, clock_a = make () in
  let clock_b = Clock.create () in
  Region.write_int64 r 0 1L;
  let a_spent = Clock.now clock_a in
  Region.set_clock r clock_b;
  Region.write_int64 r 8 1L;
  Alcotest.(check int) "first clock unchanged" a_spent (Clock.now clock_a);
  Alcotest.(check bool) "second clock charged" true (Clock.now clock_b > 0)

let test_counters () =
  let r, _ = make () in
  Region.write_int64 r 0 1L;
  Region.write_int64 r 8 2L;
  ignore (Region.read_int64 r 0);
  Region.persist r 0 16;
  let c = Region.counters r in
  Alcotest.(check int) "stores" 2 c.Region.stores;
  Alcotest.(check int) "bytes stored" 16 c.Region.bytes_stored;
  Alcotest.(check int) "loads" 1 c.Region.loads;
  Alcotest.(check int) "lines flushed" 1 c.Region.lines_flushed;
  Alcotest.(check int) "fences" 1 c.Region.fences;
  Region.reset_counters r;
  Alcotest.(check int) "reset" 0 (Region.counters r).Region.stores

(* [at_fence n] counts fences across regions, fires once at entry to the
   n-th, and leaves no trace on the simulation: an armed run whose
   callback fires ends with the same counters, clocks and images as an
   unarmed one. *)
let test_at_fence () =
  let script ~arm =
    let a, ca = make ~seed:3 () and b, cb = make ~seed:4 () in
    let fired = ref [] in
    if arm then
      Region.at_fence 3 (fun () ->
          fired :=
            ((Region.counters a).Region.fences, (Region.counters b).Region.fences)
            :: !fired);
    for i = 0 to 5 do
      let r = if i mod 2 = 0 then a else b in
      Region.write_int r (8 * i) i;
      Region.persist r (8 * i) 8
    done;
    Region.fence a;
    (!fired, List.map Region.counters [ a; b ], (Clock.now ca, Clock.now cb),
     (Region.digest a, Region.digest b))
  in
  let fired, counters, clocks, digests = script ~arm:true in
  Alcotest.(check (list (pair int int)))
    "fired once, at entry to the fourth fence (b's second)" [ (2, 1) ] fired;
  let _, counters', clocks', digests' = script ~arm:false in
  Alcotest.(check bool) "counters identical to an unarmed run" true (counters = counters');
  Alcotest.(check (pair int int)) "clocks identical to an unarmed run" clocks' clocks;
  Alcotest.(check (pair string string)) "digests identical to an unarmed run" digests'
    digests;
  let r, _ = make () in
  let fired = ref 0 in
  Region.at_fence 1 (fun () -> incr fired);
  Region.disarm_fence ();
  Region.fence r;
  Region.fence r;
  Alcotest.(check int) "disarmed countdown never fires" 0 !fired;
  Alcotest.check_raises "negative index rejected"
    (Invalid_argument "Region.at_fence: negative fence index") (fun () ->
      Region.at_fence (-1) ignore)

let test_fill () =
  let r, _ = make () in
  Region.fill r 0 32 0xFF;
  Alcotest.(check int) "filled" 0xFF (Region.read_byte r 31);
  Region.fill r 0 32 0;
  Alcotest.(check int) "zeroed" 0 (Region.read_byte r 0)

let crash_roundtrip_qcheck =
  QCheck.Test.make ~name:"persisted prefixes always survive crashes" ~count:100
    QCheck.(pair small_int (small_list (pair small_int small_int)))
    (fun (seed, writes) ->
      let r, _ = make ~crash_mode:Region.Words_survive_randomly ~size:8192 ~seed () in
      (* Persist a known prefix, then scribble unflushed noise elsewhere. *)
      Region.write_string r 0 "checkpoint";
      Region.persist r 0 10;
      List.iter
        (fun (o, v) ->
          let off = 64 + (o mod 8000) in
          Region.write_byte r off v)
        writes;
      Region.crash r;
      Region.read_string r 0 10 = "checkpoint")

let crash_idempotent_qcheck =
  QCheck.Test.make ~name:"a second crash without writes changes nothing" ~count:60
    QCheck.(pair small_int (small_list (pair small_int small_int)))
    (fun (seed, writes) ->
      let r, _ = make ~crash_mode:Region.Words_survive_randomly ~size:4096 ~seed () in
      List.iter (fun (o, v) -> Region.write_byte r (o mod 4096) v) writes;
      Region.crash r;
      let image1 = Region.read_bytes r 0 4096 in
      Region.crash r;
      Region.read_bytes r 0 4096 = image1)

let flush_then_crash_qcheck =
  QCheck.Test.make ~name:"persist_all makes crashes lossless" ~count:60
    QCheck.(pair small_int (small_list (pair small_int small_int)))
    (fun (seed, writes) ->
      let r, _ = make ~crash_mode:Region.Words_survive_randomly ~size:4096 ~seed () in
      List.iter (fun (o, v) -> Region.write_byte r (o mod 4096) v) writes;
      Region.persist_all r;
      let before = Region.read_bytes r 0 4096 in
      Region.crash r;
      Region.read_bytes r 0 4096 = before)

let partial_flush_qcheck =
  QCheck.Test.make ~name:"flushing a range persists at least that range" ~count:60
    QCheck.(triple small_int small_int (small_list small_int))
    (fun (seed, off, noise) ->
      let off = off mod 3900 in
      let r, _ = make ~crash_mode:Region.Words_survive_randomly ~size:4096 ~seed () in
      Region.write_string r off "payload!";
      Region.persist r off 8;
      List.iter (fun o -> Region.write_byte r (o mod 4096) 0xEE) noise;
      Region.crash r;
      Region.read_string r off 8 = "payload!"
      || (* noise may legitimately overwrite the payload bytes and survive *)
      List.exists (fun o -> let o = o mod 4096 in o >= off && o < off + 8) noise)

(* --- commit marker ---------------------------------------------------------- *)

let make_marker ?(crash_mode = Region.Drop_unflushed) ?(seed = 1) () =
  Commit_marker.create ~cost:Cost_model.default ~crash_mode ~seed ~clock:(Clock.create ())
    ~entry_words:3 ~max_entries:4

let marker_entries n = Array.init n (fun k -> [| k; 100 + k; -(k + 1) |])

let write_entries m es = Commit_marker.write m (Array.length es) (fun k j -> es.(k).(j))

let show_marker m =
  match Commit_marker.read m with
  | None -> "none"
  | Some es ->
      String.concat ";"
        (Array.to_list
           (Array.map (fun e -> String.concat "," (Array.to_list (Array.map string_of_int e))) es))
  | exception Region.Corrupt { what; _ } -> Alcotest.failf "recovered marker is corrupt: %s" what

let test_marker_roundtrip () =
  let m = make_marker () in
  Alcotest.(check string) "fresh marker is cleared" "none" (show_marker m);
  let r = Commit_marker.region m in
  Region.reset_counters r;
  (* A full record is accepted, and written as count + entries behind one
     fence and the flag behind a second. *)
  write_entries m (marker_entries 4);
  let c = Region.counters r in
  Alcotest.(check int) "stores: count, 4 x 3 words, flag" 14 c.Region.stores;
  Alcotest.(check int) "fences" 2 c.Region.fences;
  Region.crash r;
  Alcotest.(check string) "count = max_entries survives a crash"
    "0,100,-1;1,101,-2;2,102,-3;3,103,-4" (show_marker m);
  Commit_marker.clear m;
  Region.crash r;
  Alcotest.(check string) "cleared" "none" (show_marker m);
  Alcotest.check_raises "too many entries"
    (Invalid_argument "Commit_marker.write: 5 entries outside 0..4") (fun () ->
      write_entries m (marker_entries 5))

(* A flag other than 0 or 1, or a count outside 0..max_entries, is a
   typed [Corrupt] from [read] — never "no marker", never a partial list,
   never an untyped exception from reading past the entries. *)
let test_marker_corrupt () =
  let poked pokes =
    let m = make_marker () in
    write_entries m (marker_entries 2);
    let r = Commit_marker.region m in
    List.iter (fun (off, v) -> Region.write_int r off v) pokes;
    Region.persist_all r;
    Region.crash r;
    m
  in
  List.iter
    (fun (what, pokes) ->
      match Commit_marker.read (poked pokes) with
      | _ -> Alcotest.failf "%s: read accepted a corrupt marker" what
      | exception Region.Corrupt { structure = "Commit_marker"; _ } -> ())
    [
      ("flag 2", [ (0, 2) ]);
      ("flag -1", [ (0, -1) ]);
      ("flag max_int", [ (0, max_int) ]);
      ("count -1", [ (8, -1) ]);
      ("count max_entries + 1", [ (8, 5) ]);
      ("count max_int", [ (8, max_int) ]);
    ];
  Alcotest.(check int) "count = max_entries is accepted" 4
    (Array.length (Option.get (Commit_marker.read (poked [ (8, 4) ]))))

(* Crash at every fence of [write] on a cleared marker, and of [clear] on
   a written one, in every crash mode: each recovered [read] is exactly
   the before- or the after-state. *)
let test_marker_fence_sweep () =
  List.iter
    (fun (mode_name, crash_mode) ->
      List.iter
        (fun n ->
          let entries = marker_entries n in
          let sweep what ~setup ~op ~fences =
            let ctx = Printf.sprintf "%s, %d entries, %s" what n mode_name in
            let st =
              Fence_sweep.sweep ~ctx ~setup
                ~crash:(fun m -> Region.crash (Commit_marker.region m))
                ~recover:(fun m -> ignore (show_marker m))
                ~op ~drain:ignore ~observe:show_marker
                ~check:(fun _ _ -> ())
                ()
            in
            Alcotest.(check int) (ctx ^ ": fences") fences st.Fence_sweep.points
          in
          sweep "write" ~fences:2
            ~setup:(fun () -> make_marker ~crash_mode ~seed:(7 + n) ())
            ~op:(fun m -> write_entries m entries);
          sweep "clear" ~fences:1
            ~setup:(fun () ->
              let m = make_marker ~crash_mode ~seed:(7 + n) () in
              write_entries m entries;
              m)
            ~op:Commit_marker.clear)
        [ 1; 4 ])
    [
      ("drop-unflushed", Region.Drop_unflushed);
      ("words-survive", Region.Words_survive_randomly);
      ("lines-survive", Region.Lines_survive_randomly);
    ]

let () =
  Alcotest.run "nvm"
    [
      ( "region",
        [
          Alcotest.test_case "read/write roundtrip" `Quick test_read_write_roundtrip;
          Alcotest.test_case "bounds checked" `Quick test_bounds_checked;
          Alcotest.test_case "fill" `Quick test_fill;
          Alcotest.test_case "blit within" `Quick test_blit_within;
          Alcotest.test_case "copy between regions" `Quick test_copy_between;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "unflushed lost on crash" `Quick test_unflushed_lost_on_crash;
          Alcotest.test_case "persisted survives crash" `Quick test_persisted_survives_crash;
          Alcotest.test_case "flush is line granular" `Quick test_flush_is_line_granular;
          Alcotest.test_case "flush is pending until a fence" `Quick
            test_flush_pending_until_fence;
          Alcotest.test_case "is_persisted" `Quick test_is_persisted;
          Alcotest.test_case "dirty lines counted" `Quick test_dirty_lines_counted;
        ] );
      ( "crash",
        [
          Alcotest.test_case "word-granular survival" `Quick test_crash_word_granularity;
          Alcotest.test_case "never invents data" `Quick test_crash_never_invents_data;
        ] );
      ( "costs",
        [
          Alcotest.test_case "charged to clock" `Quick test_costs_charged;
          Alcotest.test_case "clock switching" `Quick test_clock_switch;
          Alcotest.test_case "length-prefixed record is one load" `Quick test_read_prefixed;
          Alcotest.test_case "hash_range is one charged load" `Quick test_hash_range;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "at_fence fires once, invisibly" `Quick test_at_fence;
        ] );
      ( "commit marker",
        [
          Alcotest.test_case "round trip and persist order" `Quick test_marker_roundtrip;
          Alcotest.test_case "corrupt flag or count is typed" `Quick test_marker_corrupt;
          Alcotest.test_case "write and clear swept at every fence" `Quick
            test_marker_fence_sweep;
        ] );
      ( "qcheck",
        [
          QCheck_alcotest.to_alcotest crash_roundtrip_qcheck;
          QCheck_alcotest.to_alcotest crash_idempotent_qcheck;
          QCheck_alcotest.to_alcotest flush_then_crash_qcheck;
          QCheck_alcotest.to_alcotest partial_flush_qcheck;
        ] );
    ]
