(* Tests for the deterministic simulation substrate. *)

module Rng = Kamino_sim.Rng
module Clock = Kamino_sim.Clock
module Pqueue = Kamino_sim.Pqueue
module Engine = Kamino_sim.Engine
module Max_heap = Kamino_sim.Max_heap

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_distinct_seeds () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different streams" false (Rng.int64 a = Rng.int64 b)

let test_rng_copy_independent () =
  let a = Rng.create 7 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.int64 a) (Rng.int64 b);
  ignore (Rng.int64 a);
  (* advancing [a] does not advance [b] *)
  let a' = Rng.int64 a and b' = Rng.int64 b in
  Alcotest.(check bool) "desynchronized after divergence" false (a' = b')

let test_rng_split () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  Alcotest.(check bool) "split stream differs" false (Rng.int64 a = Rng.int64 b)

let test_rng_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let f = Rng.float r in
    Alcotest.(check bool) "float in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_int_invalid () =
  let r = Rng.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_bernoulli () =
  let r = Rng.create 11 in
  let hits = ref 0 in
  let n = 10000 in
  for _ = 1 to n do
    if Rng.bernoulli r 0.3 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "frequency near 0.3" true (freq > 0.25 && freq < 0.35)

let test_rng_shuffle_permutes () =
  let r = Rng.create 13 in
  let a = Array.init 100 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 100 Fun.id) sorted

let test_clock_basic () =
  let c = Clock.create () in
  Alcotest.(check int) "starts at zero" 0 (Clock.now c);
  Clock.advance c 100;
  Alcotest.(check int) "advanced" 100 (Clock.now c);
  Alcotest.(check int) "wait incurred" 50 (Clock.advance_to c 150);
  Alcotest.(check int) "no backwards move" 0 (Clock.advance_to c 10);
  Alcotest.(check int) "still at 150" 150 (Clock.now c)

let test_clock_negative () =
  let c = Clock.create () in
  Alcotest.check_raises "negative advance"
    (Invalid_argument "Clock.advance: negative duration") (fun () -> Clock.advance c (-1))

let test_pqueue_ordering () =
  let q = Pqueue.create () in
  List.iter (fun p -> Pqueue.push q p p) [ 5; 1; 4; 1; 3; 9; 2 ];
  let out = ref [] in
  let rec drain () =
    match Pqueue.pop q with
    | Some (p, _) ->
        out := p :: !out;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted ascending" [ 1; 1; 2; 3; 4; 5; 9 ] (List.rev !out)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  Pqueue.push q 1 "a";
  Pqueue.push q 1 "b";
  Pqueue.push q 1 "c";
  let next () = match Pqueue.pop q with Some (_, v) -> v | None -> "?" in
  let first = next () in
  let second = next () in
  let third = next () in
  Alcotest.(check (list string)) "insertion order on ties" [ "a"; "b"; "c" ]
    [ first; second; third ]

let test_pqueue_qcheck =
  QCheck.Test.make ~name:"pqueue pops in sorted order" ~count:200
    QCheck.(list small_int)
    (fun prios ->
      let q = Pqueue.create () in
      List.iter (fun p -> Pqueue.push q p ()) prios;
      let rec drain acc =
        match Pqueue.pop q with Some (p, ()) -> drain (p :: acc) | None -> List.rev acc
      in
      drain [] = List.sort compare prios)

(* A max-heap hands out its largest element first, whatever the
   insertion order and however inserts and pops interleave. *)
let test_max_heap_qcheck =
  QCheck.Test.make ~name:"max_heap pops in descending order" ~count:200
    QCheck.(list (pair small_int bool))
    (fun ops ->
      let h = Max_heap.create () and model = ref [] and ok = ref true in
      List.iter
        (fun (v, pop) ->
          if pop && !model <> [] then begin
            let top = List.fold_left max min_int !model in
            ok := !ok && Max_heap.pop_max h = top;
            let rec drop = function [] -> [] | x :: r -> if x = top then r else x :: drop r in
            model := drop !model
          end
          else begin
            Max_heap.insert h v;
            model := v :: !model
          end)
        ops;
      let rec drain acc =
        if Max_heap.is_empty h then List.rev acc else drain (Max_heap.pop_max h :: acc)
      in
      !ok && drain [] = List.sort (fun a b -> compare b a) !model)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~at:30 (fun () -> log := 30 :: !log);
  Engine.schedule e ~at:10 (fun () -> log := 10 :: !log);
  Engine.schedule e ~at:20 (fun () -> log := 20 :: !log);
  let n = Engine.run e in
  Alcotest.(check int) "three events" 3 n;
  Alcotest.(check (list int)) "time order" [ 10; 20; 30 ] (List.rev !log);
  Alcotest.(check int) "clock at last event" 30 (Engine.now e)

let test_engine_cascading () =
  let e = Engine.create () in
  let fired = ref [] in
  Engine.schedule e ~at:5 (fun () ->
      fired := 5 :: !fired;
      Engine.schedule_after e ~delay:7 (fun () -> fired := 12 :: !fired));
  ignore (Engine.run e);
  Alcotest.(check (list int)) "cascaded event at 12" [ 5; 12 ] (List.rev !fired)

let test_engine_run_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  List.iter (fun at -> Engine.schedule e ~at (fun () -> incr fired)) [ 1; 2; 3; 10; 20 ];
  ignore (Engine.run_until e ~deadline:5);
  Alcotest.(check int) "only early events" 3 !fired;
  Alcotest.(check int) "two pending" 2 (Engine.pending e)

let test_engine_past_clamped () =
  let e = Engine.create () in
  let order = ref [] in
  Engine.schedule e ~at:10 (fun () ->
      order := "a" :: !order;
      (* schedule "in the past" — must clamp to now, not error *)
      Engine.schedule e ~at:3 (fun () -> order := "b" :: !order));
  ignore (Engine.run e);
  Alcotest.(check (list string)) "clamped event ran" [ "a"; "b" ] (List.rev !order);
  Alcotest.(check int) "time never went backwards" 10 (Engine.now e)

let () =
  Alcotest.run "sim"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "distinct seeds" `Quick test_rng_distinct_seeds;
          Alcotest.test_case "copy independent" `Quick test_rng_copy_independent;
          Alcotest.test_case "split" `Quick test_rng_split;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "invalid bound" `Quick test_rng_int_invalid;
          Alcotest.test_case "bernoulli" `Quick test_rng_bernoulli;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
        ] );
      ( "clock",
        [
          Alcotest.test_case "basic" `Quick test_clock_basic;
          Alcotest.test_case "negative advance" `Quick test_clock_negative;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "ordering" `Quick test_pqueue_ordering;
          Alcotest.test_case "fifo ties" `Quick test_pqueue_fifo_ties;
        ] );
      ( "event engine",
        [
          Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "cascading" `Quick test_engine_cascading;
          Alcotest.test_case "run_until" `Quick test_engine_run_until;
          Alcotest.test_case "past clamped" `Quick test_engine_past_clamped;
        ] );
      ( "qcheck",
        [
          QCheck_alcotest.to_alcotest test_pqueue_qcheck;
          QCheck_alcotest.to_alcotest test_max_heap_qcheck;
        ] );
    ]
