(* Pinned per-seed outcomes of the chaos explorer. Every campaign is a
   pure function of its flags, so a refactor of the harness must leave
   these numbers exactly as they are. The test drives the [kamino] CLI
   rather than the library, so the pins do not depend on the harness's
   OCaml API: the same file checks the code before and after a rework. *)

let cli = "../bin/kamino_cli.exe"

let run_cli args =
  let out = Filename.temp_file "kamino-pins" ".txt" in
  let rc = Sys.command (Printf.sprintf "%s %s > %s" cli args (Filename.quote out)) in
  let ic = open_in out in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  close_in ic;
  Sys.remove out;
  (rc, List.filter (fun l -> l <> "") lines)

(* (seed, verdict, events, submitted, acked, reads, stale drops,
   survivor count) of [explore] with the default 40 ops and 6 faults.
   Re-recorded when the B+Tree stopped persisting its key count: a put
   that inserts got shorter in simulated time, so faults land at other
   points of the op stream and the event, ack and stale-drop counts of
   some seeds moved. Every verdict stayed PASS. Re-recorded again when
   chain hops began to leave before the in-flight record and the
   input-queue drop: writes got shorter, so faults land at other points
   of the op stream. Every verdict stayed PASS. And again when input
   entries began to share their transaction's first fence, in-flight
   records took one fence and intent-only commits lost their mark: a
   write has fewer fences in both modes. Every verdict stayed PASS. And
   again when a Kamino head began sealing its commit mark under the write
   set's fence: kamino seeds 5 and 7 moved (events, acks, stale drops),
   traditional did not. Every verdict stayed PASS. And again when a
   rebooted replica's predecessor began re-sending, one hop after the
   rejoin, what it had forwarded before the reboot and the replica had
   not executed (a write lost in transit is sent again): a reboot with a
   write in transit adds hops, and faults are drawn at event indices, so
   they land at other points of the op stream. Events moved on every
   seed; acks fell where a later head reboot or fail-stop now lands
   before writes it used to follow (kamino 7, traditional 8). Every
   verdict stayed PASS. And again when the allocator's state became
   volatile: an insert declares no allocator word, so a traditional
   write loses the undo snapshot (and its fence) of the bump word and a
   kamino write one intent; faults land at other points. Kamino seeds 7
   and 8 moved, every traditional seed but 3 and 7 moved, and every
   verdict stayed PASS. *)
let chain_pins =
  [
    ( "kamino",
      [
        (1, "PASS", 209, 23, 23, 17, 25, 2);
        (2, "PASS", 313, 26, 26, 14, 1, 4);
        (3, "PASS", 320, 22, 22, 18, 2, 4);
        (4, "PASS", 263, 25, 24, 15, 23, 3);
        (5, "PASS", 249, 25, 25, 15, 13, 3);
        (6, "PASS", 217, 23, 23, 17, 11, 3);
        (7, "PASS", 308, 29, 26, 11, 72, 2);
        (8, "PASS", 283, 22, 22, 18, 28, 3);
      ] );
    ( "traditional",
      [
        (1, "PASS", 124, 23, 10, 17, 36, 2);
        (2, "PASS", 448, 26, 26, 14, 1, 3);
        (3, "PASS", 218, 22, 22, 18, 2, 3);
        (4, "PASS", 237, 25, 25, 15, 38, 2);
        (5, "PASS", 200, 25, 25, 15, 23, 2);
        (6, "PASS", 187, 23, 23, 17, 25, 2);
        (7, "PASS", 190, 29, 29, 11, 22, 2);
        (8, "PASS", 147, 22, 12, 18, 51, 2);
      ] );
  ]

(* (seed, events, fingerprint) of the default 3-shard cluster campaign.
   The fingerprints were re-recorded when the heap went to four size
   classes per power of two, which moves every engine's heap image; the
   event counts did not move. They were re-recorded again when the
   B+Tree stopped persisting its key count (the descriptor's count word
   stays 0, and inserts got shorter), and when a value's length word and
   bytes became one load (reads got shorter); the event counts did not
   move either time. Both moved when chain hops began to leave before
   their bookkeeping and the 2PC phases fanned out to every participant
   at one instant (hops and cross-chain commits got shorter), and when a
   replicated write lost 8 of its 26 fences (faults land at other
   points; seeds 2 and 3 gained events). The fingerprints moved again
   when heads began sealing their commit mark under the write set's
   fence; the event counts did not move, and every verdict stayed PASS.
   Seed 1's fingerprint moved when an insert began reserving its value
   before it declares the index leaf (the allocator's search left the
   leaf's lock hold; with the old order it reads the old value). No event
   count moved; the predecessor's re-forward after a rejoin moved none of
   these seeds. Every fingerprint moved when the allocator's state became
   volatile (no allocator word in any heap image or write set); seed 3
   lost 3 events, the others kept theirs, and every verdict stayed
   PASS. *)
let cluster_pins =
  [
    (1, 200, "8e534d0146e2306761c6c1f8797db79f");
    (2, 256, "3c1194fe6d8e9477033ce3a6d846bd54");
    (3, 182, "9153592eaf3eeae4c0be01a5969dcc6e");
    (4, 195, "5e07f8d0b1d4b99c80c06e23d00545f1");
  ]

let test_chain_pins () =
  List.iter
    (fun (mode, pins) ->
      let rc, lines = run_cli ("chaos --sweep 8 --seed 1 --mode " ^ mode) in
      Alcotest.(check int) (mode ^ ": sweep exit code") 0 rc;
      List.iter2
        (fun (seed, verdict, events, submitted, acked, reads, stale, survivors) line ->
          let want =
            Printf.sprintf
              "seed %d: %s (%d events, %d/%d acked, %d reads, %d stale drops, %d \
               survivors)"
              seed verdict events acked submitted reads stale survivors
          in
          Alcotest.(check string) (Printf.sprintf "%s seed %d" mode seed) want line)
        pins
        (List.filteri (fun i _ -> i < List.length pins) lines))
    chain_pins

let test_cluster_pins () =
  List.iter
    (fun (seed, events, fingerprint) ->
      let rc, lines = run_cli (Printf.sprintf "cluster --seed %d" seed) in
      Alcotest.(check int) (Printf.sprintf "seed %d: exit code" seed) 0 rc;
      match lines with
      | _verdict :: summary :: fp :: _ ->
          Alcotest.(check int)
            (Printf.sprintf "seed %d: events" seed)
            events
            (Scanf.sscanf summary " %d events" Fun.id);
          Alcotest.(check string)
            (Printf.sprintf "seed %d: fingerprint" seed)
            ("  fingerprint " ^ fingerprint)
            fp
      | _ -> Alcotest.failf "seed %d: unexpected output:\n%s" seed (String.concat "\n" lines))
    cluster_pins

let () =
  Alcotest.run "chaos-pins"
    [
      ( "outcomes",
        [
          Alcotest.test_case "chain campaign, seeds 1-8, both modes" `Quick test_chain_pins;
          Alcotest.test_case "cluster campaign, seeds 1-4" `Quick test_cluster_pins;
        ] );
    ]
