(* Tests for the chain: the command language, the persistent operation
   queues, the event-driven protocol with mid-propagation crash injection
   and exactly-once execution, replication and timing in both modes,
   aborts, membership, and the §5.2-5.3 failure protocols. *)

module Sim = Kamino_sim.Engine
module Rng = Kamino_sim.Rng
module Clock = Kamino_sim.Clock
module Region = Kamino_nvm.Region
module Engine = Kamino_core.Engine
module Kv = Kamino_kv.Kv
module Op = Kamino_chain.Op
module Opqueue = Kamino_chain.Opqueue
module Async = Kamino_chain.Async_chain
module Membership = Kamino_chain.Membership
module Locks = Kamino_core.Locks

(* --- Op ------------------------------------------------------------------- *)

let test_op_roundtrip () =
  List.iter
    (fun op ->
      Alcotest.(check bool) "decode inverts encode" true
        (Op.equal op (Op.decode (Op.encode op))))
    [
      Op.Put (1, "value");
      Op.Put (0, "");
      Op.Delete 42;
      Op.Append (7, "suffix");
      Op.Put (max_int / 2, String.make 500 'x');
    ]

let test_op_decode_garbage () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "garbage %S rejected" s)
        true
        (try
           ignore (Op.decode s);
           false
         with Region.Corrupt { structure = "Op"; _ } -> true))
    [ ""; "x"; "P\x01"; "Q" ^ String.make 16 '\x00'; "P" ^ String.make 20 '\xff' ]

let test_op_apply () =
  let e =
    Engine.create
      ~config:{ Engine.default_config with Engine.heap_bytes = 1 lsl 20 }
      ~kind:Engine.Kamino_simple ~seed:1 ()
  in
  let kv = Kv.create e ~value_size:128 ~node_size:512 in
  Op.apply (Op.Put (1, "hello")) kv;
  Alcotest.(check (option string)) "put" (Some "hello") (Kv.get kv 1);
  Op.apply (Op.Append (1, "-world")) kv;
  Alcotest.(check (option string)) "append" (Some "hello-world") (Kv.get kv 1);
  Op.apply (Op.Append (2, "fresh")) kv;
  Alcotest.(check (option string)) "append to absent inserts" (Some "fresh") (Kv.get kv 2);
  Op.apply (Op.Delete 1) kv;
  Alcotest.(check (option string)) "delete" None (Kv.get kv 1)

let op_roundtrip_qcheck =
  QCheck.Test.make ~name:"random ops roundtrip through the wire format" ~count:200
    QCheck.(triple (int_range 0 3) (int_range 0 1_000_000) string)
    (fun (tag, key, payload) ->
      let op =
        match tag with
        | 0 -> Op.Put (key, payload)
        | 1 -> Op.Delete key
        | 2 -> Op.Append (key, payload)
        | _ -> Op.Batch [ Op.Put (key, payload); Op.Delete (key + 1) ]
      in
      Op.equal op (Op.decode (Op.encode op)))

(* The wire bytes of a nested command, as the string-concatenating encoder
   wrote them: a queue or message in flight across an upgrade still
   decodes. *)
let test_op_golden_encoding () =
  let op = Op.Batch [ Op.Put (1, "ab"); Op.Delete 2; Op.Append (3, "") ] in
  let golden =
    "B\003\000\000\000\000\000\000\000\019\000\000\000\000\000\000\000P\001\000\000\000\000\000\000\000\002\000\000\000\000\000\000\000ab\t\000\000\000\000\000\000\000D\002\000\000\000\000\000\000\000\017\000\000\000\000\000\000\000A\003\000\000\000\000\000\000\000\000\000\000\000\000\000\000\000"
  in
  Alcotest.(check string) "encoding unchanged" golden (Op.encode op)

(* In-place decoding reads only inside its window: a command embedded in a
   larger buffer decodes, and a window that is negative, runs past the
   buffer, or cuts the command short raises [Region.Corrupt] — never
   [Invalid_argument]. *)
let test_op_decode_sub_bounds () =
  let wire = Op.encode (Op.Batch [ Op.Put (5, "abc"); Op.Delete 6 ]) in
  let n = String.length wire in
  let b = Bytes.make (n + 10) '\xff' in
  Bytes.blit_string wire 0 b 4 n;
  Alcotest.(check bool) "decodes at an offset" true
    (Op.equal (Op.decode wire) (Op.decode_sub b 4 n));
  List.iter
    (fun (label, pos, len) ->
      Alcotest.(check bool) label true
        (match Op.decode_sub b pos len with
        | _ -> false
        | exception Region.Corrupt { structure = "Op"; _ } -> true))
    [
      ("negative position", -1, n);
      ("negative length", 4, -3);
      ("window past the buffer", 12, n);
      ("window shorter than the command", 4, n - 1);
      ("window longer than the command", 4, n + 1);
    ]

(* --- Opqueue ---------------------------------------------------------------- *)

(* A slot view as (queue seq, payload copy). *)
let entry = Option.map (fun s -> (Opqueue.Slot.seq s, Opqueue.Slot.to_string s))

(* The oldest entry, removed: [peek], then [drop_peeked]. *)
let dequeue q =
  match Opqueue.peek q with
  | None -> None
  | Some _ as r ->
      Opqueue.drop_peeked q;
      r

let make_queue ?(crash_mode = Region.Drop_unflushed) ?(n_slots = 8) () =
  let clock = Clock.create () in
  let r =
    Region.create ~crash_mode ~rng:(Rng.create 4) ~clock
      ~size:(Opqueue.required_size ~slot_bytes:64 ~n_slots)
      ()
  in
  (Opqueue.format r ~slot_bytes:64 ~n_slots, r)

let test_queue_fifo () =
  let q, _ = make_queue () in
  Alcotest.(check bool) "empty" true (Opqueue.is_empty q);
  Alcotest.(check int) "seq 0" 0 (Opqueue.enqueue q "a");
  Alcotest.(check int) "seq 1" 1 (Opqueue.enqueue q "b");
  Alcotest.(check int) "length" 2 (Opqueue.length q);
  let check_entry = Alcotest.(check (option (pair int string))) in
  check_entry "peek" (Some (0, "a")) (entry (Opqueue.peek q));
  check_entry "dequeue a" (Some (0, "a")) (entry (dequeue q));
  check_entry "dequeue b" (Some (1, "b")) (entry (dequeue q));
  check_entry "drained" None (entry (dequeue q))

let test_queue_wraparound () =
  let q, _ = make_queue ~n_slots:4 () in
  for round = 0 to 24 do
    let seq = Opqueue.enqueue q (Printf.sprintf "p%d" round) in
    Alcotest.(check int) "seqs are global" round seq;
    Alcotest.(check (option (pair int string))) "fifo across wraps"
      (Some (round, Printf.sprintf "p%d" round))
      (entry (dequeue q))
  done

let test_queue_full () =
  let q, _ = make_queue ~n_slots:2 () in
  ignore (Opqueue.enqueue q "a");
  ignore (Opqueue.enqueue q "b");
  Alcotest.(check bool) "full" true (Opqueue.is_full q);
  Alcotest.(check bool) "enqueue on full raises" true
    (try
       ignore (Opqueue.enqueue q "c");
       false
     with Failure _ -> true);
  ignore (dequeue q);
  Alcotest.(check int) "space reclaimed" 2 (Opqueue.enqueue q "c")

let test_queue_drop_through () =
  let q, _ = make_queue () in
  for i = 0 to 5 do
    ignore (Opqueue.enqueue q (string_of_int i))
  done;
  Opqueue.drop_through q 3;
  Alcotest.(check (option (pair int string))) "entries <= 3 dropped" (Some (4, "4"))
    (entry (Opqueue.peek q));
  Opqueue.drop_through q 100;
  Alcotest.(check bool) "drop past tail empties" true (Opqueue.is_empty q)

(* [drop_peeked] trusts the view [peek] validated: it stores, flushes and
   fences the head word and loads nothing. A crash after it reopens the
   window that a re-validating dequeue left; the digest was recorded from
   that dequeue (peek, load again, advance the head) on the same steps. *)
let test_queue_drop_peeked () =
  let q, r = make_queue () in
  List.iter (fun p -> ignore (Opqueue.enqueue q p)) [ "a"; "bb"; "ccc"; "dddd"; "eeeee" ];
  let refused what =
    Alcotest.(check bool) what true
      (match Opqueue.drop_peeked q with () -> false | exception Invalid_argument _ -> true)
  in
  refused "nothing peeked yet";
  for _ = 1 to 2 do
    ignore (Opqueue.peek q);
    let c = Region.counters r in
    let loads = c.Region.loads and bytes = c.Region.bytes_loaded and fences = c.Region.fences in
    Opqueue.drop_peeked q;
    Alcotest.(check int) "no load" 0 (c.Region.loads - loads);
    Alcotest.(check int) "no byte loaded" 0 (c.Region.bytes_loaded - bytes);
    Alcotest.(check int) "one fence" 1 (c.Region.fences - fences)
  done;
  refused "already dropped";
  ignore (Opqueue.enqueue q "f");
  Region.crash r;
  let q = Opqueue.open_existing r in
  Alcotest.(check (pair int int)) "window" (2, 6) (Opqueue.head_seq q, Opqueue.tail_seq q);
  Alcotest.(check string) "image" "3c926387c3c11406ad6b634f6398f0cf" (Opqueue.digest q);
  Alcotest.(check (option (pair int string))) "oldest entry" (Some (2, "ccc"))
    (entry (Opqueue.peek q))

let test_queue_crash_durability () =
  let q, r = make_queue () in
  ignore (Opqueue.enqueue q "one");
  ignore (Opqueue.enqueue q "two");
  ignore (dequeue q);
  Region.crash r;
  let q = Opqueue.open_existing r in
  Alcotest.(check int) "head survived" 1 (Opqueue.head_seq q);
  Alcotest.(check int) "tail survived" 2 (Opqueue.tail_seq q);
  Alcotest.(check (option (pair int string))) "contents survived" (Some (1, "two"))
    (entry (Opqueue.peek q))

let test_queue_torn_publishes () =
  (* Word-random crashes after enqueues: the recovered queue must always be
     a well-formed window whose entries decode intact. *)
  for seed = 1 to 40 do
    let clock = Clock.create () in
    let r =
      Region.create ~crash_mode:Region.Words_survive_randomly ~rng:(Rng.create seed) ~clock
        ~size:(Opqueue.required_size ~slot_bytes:64 ~n_slots:8)
        ()
    in
    let q = Opqueue.format r ~slot_bytes:64 ~n_slots:8 in
    ignore (Opqueue.enqueue q "committed");
    (* crash possibly mid-way through the second publish *)
    ignore (Opqueue.enqueue q "racing");
    Region.crash r;
    let q = Opqueue.open_existing r in
    Opqueue.iter q (fun slot ->
        let payload = Opqueue.Slot.to_string slot in
        match Opqueue.Slot.seq slot with
        | 0 -> Alcotest.(check string) "entry 0 intact" "committed" payload
        | 1 -> Alcotest.(check string) "entry 1 intact" "racing" payload
        | seq -> Alcotest.failf "unexpected seq %d" seq)
  done

(* The checksum as first written: a [String.iter] fold over the payload. *)
let reference_checksum ~seq ~payload =
  let acc = ref (Int64.of_int (seq lxor 0x5EED)) in
  String.iter
    (fun c -> acc := Int64.add (Int64.mul !acc 1099511628211L) (Int64.of_int (Char.code c + 1)))
    payload;
  Int64.add !acc 0x5A17EDL

let checksum_qcheck =
  let slot_bytes = 192 in
  let payload =
    QCheck.Gen.(
      oneof
        [ return ""; string_size (return slot_bytes); string_size (int_range 0 slot_bytes) ])
  in
  QCheck.Test.make ~name:"queue checksum matches the reference fold" ~count:300
    QCheck.(pair int (make ~print:(Printf.sprintf "%S") payload))
    (fun (seq, payload) ->
      Int64.equal (Opqueue.checksum ~seq payload) (reference_checksum ~seq ~payload))

(* A queue image laid out byte for byte as the format defines it — header
   words, then a slot's seq, length, checksum and payload — with the check
   word as a golden constant: an image persisted by an earlier build must
   reopen and yield its entry. *)
let test_queue_golden_image () =
  let seq = 41 and payload = "KTOPQUE golden payload" in
  let golden_check = 0x84a704efe74cf55dL in
  Alcotest.(check int64) "golden checksum" golden_check (Opqueue.checksum ~seq payload);
  Alcotest.(check int64) "reference fold" golden_check (reference_checksum ~seq ~payload);
  let slot_bytes = 64 and n_slots = 8 in
  let r =
    Region.create ~rng:(Rng.create 1) ~clock:(Clock.create ())
      ~size:(Opqueue.required_size ~slot_bytes ~n_slots)
      ()
  in
  Region.write_int64 r 0 0x4B544F505155455FL;
  Region.write_int64 r 8 (Int64.of_int ((slot_bytes * 31) + (n_slots * 7) + 5));
  Region.write_int r 16 seq;
  Region.write_int r 24 (seq + 1);
  Region.write_int r 32 slot_bytes;
  Region.write_int r 40 n_slots;
  let off = 64 + (seq mod n_slots * (24 + slot_bytes)) in
  Region.write_int r off seq;
  Region.write_int r (off + 8) (String.length payload);
  Region.write_int64 r (off + 16) golden_check;
  Region.write_string r (off + 24) payload;
  let q = Opqueue.open_existing r in
  Alcotest.(check (option (pair int string))) "entry reopens" (Some (seq, payload))
    (entry (Opqueue.peek q))

let flip_byte r off = Region.write_byte r off (Region.read_byte r off lxor 0x40)

let raises_corrupt f =
  match f () with _ -> false | exception Region.Corrupt { structure = "Opqueue"; _ } -> true

(* Corrupt persistent bytes surface as the typed [Region.Corrupt]. *)
let test_queue_corruption_typed () =
  let q, r = make_queue () in
  ignore (Opqueue.enqueue q "first");
  ignore (Opqueue.enqueue q "second");
  (* A flipped payload byte of the published head entry. *)
  flip_byte r (64 + 24 + 2);
  Alcotest.(check bool) "peek" true (raises_corrupt (fun () -> Opqueue.peek q));
  Alcotest.(check bool) "drop after a failed peek" true
    (match Opqueue.drop_peeked q with () -> false | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "iter" true
    (raises_corrupt (fun () -> Opqueue.iter q (fun _ -> ())));
  Alcotest.(check int) "nothing dequeued" 0 (Opqueue.head_seq q);
  (* A flipped byte of the magic word, then of the configuration. *)
  let _, r = make_queue () in
  flip_byte r 3;
  Alcotest.(check bool) "bad magic" true (raises_corrupt (fun () -> Opqueue.open_existing r));
  let _, r = make_queue () in
  flip_byte r 32;
  Alcotest.(check bool) "corrupt configuration" true
    (raises_corrupt (fun () -> Opqueue.open_existing r));
  (* A configuration whose check word agrees but whose geometry is
     impossible (no slots) is corrupt too, not a division by zero. *)
  let _, r = make_queue () in
  Region.write_int r 40 0;
  Region.write_int64 r 8 (Int64.of_int ((64 * 31) + 5));
  Alcotest.(check bool) "impossible geometry" true
    (raises_corrupt (fun () -> Opqueue.open_existing r));
  (* A head word below zero, or past the tail word (at 16 and 24). *)
  List.iter
    (fun (what, off, v) ->
      let _, r = make_queue () in
      Region.write_int r off v;
      Alcotest.(check bool) what true (raises_corrupt (fun () -> Opqueue.open_existing r)))
    [ ("negative head", 16, -3); ("head past the tail", 16, 1); ("negative tail", 24, -1) ]

(* The queue's op path allocates nothing once warm: the checksum fold is
   unboxed, loads land in the queue's scratch buffer and [peek]'s option
   is built once. The envelope is the size a chain hop carries for a
   48-byte value (8-byte op seq + 17-byte command header + value). *)
let test_queue_zero_alloc () =
  let clock = Clock.create () in
  let r =
    Region.create ~rng:(Rng.create 2) ~clock
      ~size:(Opqueue.required_size ~slot_bytes:128 ~n_slots:16)
      ()
  in
  let q = Opqueue.format r ~slot_bytes:128 ~n_slots:16 in
  let envelope = String.make 73 'e' in
  let cycle () =
    ignore (Opqueue.enqueue q envelope);
    ignore (Opqueue.peek q);
    Opqueue.drop_peeked q
  in
  for _ = 1 to 32 do
    cycle ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    cycle ()
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words for 1000 cycles" 0. words

(* --- Async chain ------------------------------------------------------------ *)

let engine_config =
  {
    Engine.default_config with
    Engine.heap_bytes = 2 lsl 20;
    log_slots = 64;
    data_log_bytes = 1 lsl 19;
  }

let kamino = Async.Kamino_chain { alpha = None }

let make_chain ?(mode = kamino) () =
  Async.create ~engine_config ~hop_ns:5000 ~rpc_ns:500 ~mode ~f:2 ~value_size:128
    ~node_size:512 ~seed:99 ()

let test_async_replication () =
  List.iter
    (fun mode ->
      let c = make_chain ~mode () in
      let completions = ref [] in
      for k = 0 to 19 do
        Async.submit c ~at:(k * 1000)
          (Op.Put (k, Printf.sprintf "v%d" k))
          ~on_complete:(fun t -> completions := t :: !completions)
      done;
      ignore (Async.run c);
      Alcotest.(check int) "all completions fired" 20 (List.length !completions);
      (match Async.replicas_consistent c with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      for i = 0 to Async.length c - 1 do
        Alcotest.(check int)
          (Printf.sprintf "replica %d executed everything exactly once" i)
          20 (Async.executed_seq c i)
      done)
    [ kamino; Async.Traditional ]

let test_async_completion_after_full_round_trip () =
  let c = make_chain () in
  let finish = ref 0 in
  Async.submit c ~at:0 (Op.Put (1, "x")) ~on_complete:(fun t -> finish := t);
  ignore (Async.run c);
  (* 3 forward hops + 1 ack hop at 5 us plus processing *)
  Alcotest.(check bool)
    (Printf.sprintf "completion (%d) covers 4 hops" !finish)
    true
    (!finish >= 4 * 5000)

let test_async_reads_at_tail () =
  let c = make_chain () in
  Async.submit c ~at:0 (Op.Put (5, "tailread")) ~on_complete:(fun _ -> ());
  let result = ref None in
  Async.read c ~at:1_000_000 5 ~on_result:(fun v _ -> result := v);
  ignore (Async.run c);
  Alcotest.(check (option string)) "read served by tail" (Some "tailread") !result

let test_async_quick_reboot_mid_propagation () =
  (* Crash a middle replica while a burst of writes is streaming through
     the chain; every write must still complete and replicate exactly
     once. *)
  List.iter
    (fun victim ->
      let c = make_chain () in
      let completed = ref 0 in
      for k = 0 to 39 do
        Async.submit c ~at:(k * 2000)
          (Op.Append (k mod 7, Printf.sprintf "+%d" k))
          ~on_complete:(fun _ -> incr completed)
      done;
      (* the reboot lands mid-burst *)
      Async.quick_reboot c ~at:41_000 victim;
      ignore (Async.run c);
      Alcotest.(check int)
        (Printf.sprintf "victim %d: all writes completed" victim)
        40 !completed;
      (match Async.replicas_consistent c with
      | Ok () -> ()
      | Error e -> Alcotest.failf "victim %d: %s" victim e);
      for i = 0 to Async.length c - 1 do
        Alcotest.(check int)
          (Printf.sprintf "victim %d: replica %d exactly-once" victim i)
          40 (Async.executed_seq c i)
      done)
    [ 0; 1; 2; 3 ]

let test_async_repeated_reboots_random () =
  let rng = Rng.create 5 in
  let c = make_chain () in
  let completed = ref 0 in
  let n = 100 in
  for k = 0 to n - 1 do
    Async.submit c ~at:(k * 3000)
      (Op.Put (k mod 17, Printf.sprintf "r%d" k))
      ~on_complete:(fun _ -> incr completed)
  done;
  for _ = 1 to 6 do
    Async.quick_reboot c
      ~at:(Rng.int rng (n * 3000))
      (Rng.int rng (Async.length c))
  done;
  ignore (Async.run c);
  Alcotest.(check int) "all writes completed" n !completed;
  match Async.replicas_consistent c with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* A persistent input-queue slot that decodes to garbage — bit rot under a
   valid queue checksum — must be detected when the rebooting replica
   re-drives its queue, and surfaced with the replica and slot rather than
   silently executed. *)
let test_corrupt_input_slot_detected () =
  let c = make_chain () in
  Async.submit c ~at:1_000 (Op.Put (0, "good")) ~on_complete:(fun _ -> ());
  ignore (Async.run c);
  (* Plant a corrupt envelope (valid sequence header, garbage command) in
     replica 1's persistent input queue, as in-place corruption would. *)
  let seq_header =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 99L;
    Bytes.to_string b
  in
  let qseq = Opqueue.enqueue (Async.input_queue c 1) (seq_header ^ "Zjunk") in
  (match Async.reboot_now c 1 with
  | () -> Alcotest.fail "corrupt slot executed or ignored"
  | exception Region.Corrupt { structure; what; _ } ->
      Alcotest.(check string) "names the replica and the slot"
        (Printf.sprintf "Async_chain node 1 input entry %d" qseq)
        structure;
      Alcotest.(check bool) "carries the decoder's reason" true (String.length what > 0));
  (* The garbage was never applied: sequence 99 is not in the replica's
     applied set and the committed state still holds only the good write. *)
  Alcotest.(check bool) "phantom sequence not applied" true
    (not (List.mem 99 (Async.applied_seqs c 1)));
  Alcotest.(check (option string)) "state unaffected" (Some "good") (Kv.get (Async.kv_at c 1) 0);
  (* The same in a replica's in-flight queue, found by a reboot's re-drive
     and by a view change's chain repair. The planted entries sit behind
     real queue traffic, so their queue sequence is not 0. *)
  let planted envelope =
    let c = make_chain () in
    for k = 0 to 2 do
      Async.submit c ~at:(1_000 + (k * 100_000)) (Op.Put (k, "good")) ~on_complete:(fun _ -> ())
    done;
    ignore (Async.run c);
    let qseq = Opqueue.enqueue (Async.inflight_queue c 1) envelope in
    Alcotest.(check bool) "planted behind earlier traffic" true (qseq > 0);
    (c, qseq)
  in
  let expect_corrupt label qseq f =
    match f () with
    | () -> Alcotest.failf "%s: corrupt in-flight slot re-sent" label
    | exception Region.Corrupt { structure; _ } ->
        Alcotest.(check string) (label ^ ": names the replica and the slot")
          (Printf.sprintf "Async_chain node 1 inflight entry %d" qseq)
          structure
  in
  let c, qseq = planted (seq_header ^ "Zjunk") in
  expect_corrupt "reboot, garbage command" qseq (fun () -> Async.reboot_now c 1);
  let c, qseq = planted "junk" in
  expect_corrupt "reboot, short envelope" qseq (fun () -> Async.reboot_now c 1);
  let c, qseq = planted (seq_header ^ "Zjunk") in
  expect_corrupt "repair after fail-stop" qseq (fun () -> Async.fail_stop_now c 3)

(* Per-op allocation on a warm 3-replica Kamino chain, submit through the
   tail's ack and cleanup cascade. Measured at 570 words/op (OCaml 5.1,
   no flambda); the boxing queue checksum alone cost ~2,700 more, the
   string copies of envelopes ~430 more and neighbour lookups that built
   an array, a tuple and options per call ~150 more. *)
let test_chain_op_allocation () =
  let c =
    Async.create ~engine_config ~hop_ns:5000 ~rpc_ns:500 ~mode:kamino ~f:1 ~value_size:64
      ~node_size:512 ~seed:3 ()
  in
  Alcotest.(check int) "three replicas" 3 (Async.length c);
  let value = String.make 48 'v' in
  let at = ref 0 in
  let puts n =
    for k = 0 to n - 1 do
      at := !at + 50_000;
      Async.submit c ~at:!at (Op.Put (k mod 64, value)) ~on_complete:(fun _ -> ())
    done;
    ignore (Async.run c)
  in
  puts 300;
  let n = 500 in
  let before = Gc.minor_words () in
  puts n;
  let per_op = (Gc.minor_words () -. before) /. float_of_int n in
  if per_op > 650. then Alcotest.failf "%.1f minor words per op, bound 650" per_op

(* The persisted image of every input and in-flight queue after a fixed,
   fault-free run: pins the queue format and the envelope bytes together. *)
let test_queue_images_pinned () =
  let c =
    Async.create ~engine_config ~hop_ns:5000 ~rpc_ns:500 ~mode:kamino ~f:1 ~value_size:128
      ~node_size:512 ~seed:5 ()
  in
  for k = 0 to 23 do
    let op =
      match k mod 4 with
      | 0 -> Op.Put (k mod 5, Printf.sprintf "value-%d" k)
      | 1 -> Op.Append (k mod 5, "+")
      | 2 -> Op.Delete (k mod 5)
      | _ -> Op.Batch [ Op.Put (k, "b"); Op.Append (k + 1, "c") ]
    in
    Async.submit c ~at:(k * 50_000) op ~on_complete:(fun _ -> ())
  done;
  ignore (Async.run c);
  let unused = "f621fe13ed680217d93876647fff7cf2"
  and carried = "a878b0668c2d6b70a4e86063d488434a" in
  List.iteri
    (fun i (input, inflight) ->
      Alcotest.(check string) (Printf.sprintf "node %d input" i) input
        (Opqueue.digest (Async.input_queue c i));
      Alcotest.(check string) (Printf.sprintf "node %d in-flight" i) inflight
        (Opqueue.digest (Async.inflight_queue c i)))
    [ (unused, carried); (carried, carried); (carried, unused) ]

(* On a spaced, uncontended write stream every replica is idle when a
   write arrives, so a write's latency is its replicas' service times plus
   one hop per forward and one for the tail's ack: f+2 hops on a Kamino
   chain (f+2 replicas), f+1 on a traditional one. Raising [hop_ns] by
   1000 ns must raise every write's latency by exactly that many hops. *)
let test_hop_cost_is_exact () =
  let latencies mode hop_ns =
    let c =
      Async.create ~engine_config ~hop_ns ~rpc_ns:1000 ~mode ~f:2 ~value_size:128
        ~node_size:512 ~seed:7 ()
    in
    let lat = Array.make 50 0 in
    for k = 0 to 49 do
      let at = k * 200_000 in
      Async.submit c ~at (Op.Put (k, "x")) ~on_complete:(fun t -> lat.(k) <- t - at)
    done;
    ignore (Async.run c);
    lat
  in
  List.iter
    (fun (name, mode, hops) ->
      let base = latencies mode 5000 and slower = latencies mode 6000 in
      Array.iteri
        (fun k b ->
          Alcotest.(check int)
            (Printf.sprintf "%s write %d: +%d hops of 1000 ns" name k hops)
            (hops * 1000) (slower.(k) - b))
        base)
    [ ("kamino", kamino, 4); ("traditional", Async.Traditional, 3) ]

(* §5.1's order, pinned on a traced f=1 chain: a replica forwards as soon
   as its execute commits, and a tail acks as soon as its execute commits.
   The in-flight record and the input-queue drop come after the message
   leaves, so each non-head replica's outgoing hop starts at the end of
   its last commit span, with no simulated ns charged in between. Node [i]
   commits on track [10 (i+1)] and sends on track [10 (i+1) + 3]. *)
let test_hop_leaves_at_commit () =
  List.iter
    (fun (name, mode) ->
      let obs = Kamino_obs.Obs.create () in
      let c =
        Async.create ~engine_config ~obs ~hop_ns:5000 ~rpc_ns:500 ~mode ~f:1 ~value_size:64
          ~node_size:512 ~seed:13 ()
      in
      Async.submit c ~at:10_000 (Op.Put (3, "isolated")) ~on_complete:(fun _ -> ());
      ignore (Async.run c);
      let n = Async.length c in
      let commit_end = Array.make n (-1) and hops = ref [] in
      Kamino_obs.Obs.iter obs (fun ~kind ~track ~ts ~dur ~a:_ ~b ~c:dst ->
          if kind = Kamino_obs.Obs.k_commit && track mod 10 = 0 then
            commit_end.((track / 10) - 1) <- max commit_end.((track / 10) - 1) (ts + dur)
          else if kind = Kamino_obs.Obs.k_hop then hops := (b, dst, ts) :: !hops);
      for i = 1 to n - 1 do
        let dst = if i = n - 1 then 0 else i + 1 in
        match List.find_opt (fun (src, d, _) -> src = i && d = dst) !hops with
        | Some (_, _, ts) ->
            Alcotest.(check int)
              (Printf.sprintf "%s: node %d's hop to %d starts at its commit end" name i dst)
              commit_end.(i) ts
        | None -> Alcotest.failf "%s: node %d sent no hop to %d" name i dst
      done)
    [ ("kamino", kamino); ("traditional", Async.Traditional) ]

(* --- Chain replication in both modes ---------------------------------------- *)

let both_modes = [ ("traditional", Async.Traditional); ("kamino", kamino) ]

(* Client helpers: each runs one operation to completion from the current
   simulated time and returns what the client observes. *)
let now c = Sim.now (Async.sim c)

let exec c op =
  let finish = ref 0 in
  Async.submit c ~at:(now c) op ~on_complete:(fun t -> finish := t);
  ignore (Async.run c);
  !finish

let put c k v = exec c (Op.Put (k, v))

let get c k =
  let result = ref None in
  Async.read c ~at:(now c) k ~on_result:(fun v _ -> result := v);
  ignore (Async.run c);
  !result

let head_kv c = Async.kv_at c (Async.head_id c)

let check_consistent label c =
  match Async.replicas_consistent c with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" label e

let test_replica_counts () =
  Alcotest.(check int) "traditional: f+1 replicas" 3
    (Async.length (make_chain ~mode:Async.Traditional ()));
  Alcotest.(check int) "kamino: f+2 replicas" 4 (Async.length (make_chain ()))

let test_writes_replicate () =
  List.iter
    (fun (name, mode) ->
      let c = make_chain ~mode () in
      for k = 0 to 19 do
        ignore (put c k (Printf.sprintf "val-%d" k))
      done;
      check_consistent name c;
      Alcotest.(check (option string)) (name ^ ": read at tail") (Some "val-7") (get c 7))
    both_modes

let test_rmw_and_delete_replicate () =
  List.iter
    (fun (name, mode) ->
      let c = make_chain ~mode () in
      ignore (put c 1 "base");
      ignore (exec c (Op.Append (1, "+rmw")));
      Alcotest.(check (option string)) (name ^ ": rmw applied") (Some "base+rmw") (get c 1);
      ignore (exec c (Op.Delete 1));
      Alcotest.(check (option string)) (name ^ ": deleted everywhere") None (get c 1);
      check_consistent name c)
    both_modes

let test_random_workload_consistency () =
  List.iter
    (fun (name, mode) ->
      let c = make_chain ~mode () in
      let rng = Rng.create 13 in
      let writes = ref 0 in
      for _ = 1 to 200 do
        let k = Rng.int rng 30 in
        let write op =
          incr writes;
          ignore (exec c op)
        in
        match Rng.int rng 4 with
        | 0 -> write (Op.Put (k, Printf.sprintf "p%d" k))
        | 1 -> write (Op.Delete k)
        | 2 -> write (Op.Append (k, "."))
        | _ -> ignore (get c k)
      done;
      check_consistent (name ^ " random workload") c;
      for i = 0 to Async.length c - 1 do
        Alcotest.(check int)
          (Printf.sprintf "%s: replica %d exactly-once" name i)
          !writes (Async.executed_seq c i)
      done)
    both_modes

(* Every write crosses each link once and the tail's ack comes back: as
   many hops as replicas. A client's own hop to the chain is the caller's. *)
let test_write_latency_includes_hops () =
  List.iter
    (fun (name, mode) ->
      let c = make_chain ~mode () in
      let done_at = put c 1 "x" in
      let hops = Async.length c in
      Alcotest.(check bool)
        (Printf.sprintf "%s: latency %d >= %d hops" name done_at (hops * 5000))
        true
        (done_at >= hops * 5000))
    both_modes

let test_kamino_chain_faster_than_traditional () =
  (* Same op stream, f=2: the Kamino chain commits without critical-path
     copies at any replica and its client lives on the head, so writes
     complete sooner even with one extra replica in the chain. The
     traditional client pays its hop to the head. *)
  let run mode =
    let c = make_chain ~mode () in
    let client_hop = match mode with Async.Traditional -> 5000 | Async.Kamino_chain _ -> 0 in
    let finish = ref 0 in
    let rec go k at =
      if k < 50 then
        Async.submit c ~at:(at + client_hop)
          (Op.Put (k, String.make 100 'v'))
          ~on_complete:(go (k + 1))
      else finish := at
    in
    go 0 0;
    ignore (Async.run c);
    !finish
  in
  let trad = run Async.Traditional and kam = run kamino in
  Alcotest.(check bool)
    (Printf.sprintf "kamino (%d) < traditional (%d)" kam trad)
    true (kam < trad)

(* The head holds a write's locks until the tail acks. A later write to the
   same key that reaches the head before the ack does not wait for it
   today: the acquisition is counted as a lock-wait event with no wait
   time, and chain order alone serializes the two writes. *)
let test_dependent_write_does_not_wait_for_ack () =
  List.iter
    (fun (name, mode) ->
      let c = make_chain ~mode () in
      ignore (put c 1 "base-1");
      ignore (put c 2 "base-2");
      let locks = Engine.locks (Async.engine_at c (Async.head_id c)) in
      Locks.reset_stats locks;
      let t0 = now c + 1_000 in
      let t1 = ref 0 and t_ind = ref 0 and t_dep = ref 0 in
      Async.submit c ~at:t0 (Op.Put (1, "first")) ~on_complete:(fun t -> t1 := t);
      Async.submit c ~at:(t0 + 100) (Op.Put (2, "independent")) ~on_complete:(fun t ->
          t_ind := t);
      Async.submit c ~at:(t0 + 200) (Op.Put (1, "second")) ~on_complete:(fun t ->
          t_dep := t);
      ignore (Async.run c);
      (* Every op bumps the head's exec-seq word, so the independent write
         meets one held lock and the dependent write two (that word and
         key 1's value). *)
      Alcotest.(check int) (name ^ ": held-lock acquisitions") 3 (Locks.wait_events locks);
      Alcotest.(check int) (name ^ ": no wait time charged") 0 (Locks.waits locks);
      Alcotest.(check bool)
        (Printf.sprintf "%s: chain order (%d < %d < %d)" name !t1 !t_ind !t_dep)
        true
        (!t1 < !t_ind && !t_ind < !t_dep);
      (* Waiting for the first write's ack would add a whole chain round
         trip to the dependent write. *)
      Alcotest.(check bool)
        (Printf.sprintf "%s: dependent write did not wait for the ack (%d vs %d)" name
           (!t_dep - t0 - 200) (!t1 - t0))
        true
        (!t_dep - t0 - 200 < 2 * (!t1 - t0) - 5000);
      Alcotest.(check (option string)) (name ^ ": last write wins") (Some "second") (get c 1);
      check_consistent name c)
    both_modes

let test_storage_accounting () =
  let trad = make_chain ~mode:Async.Traditional () and kam = make_chain () in
  (* Kamino: f+2 heaps plus the head's backup; traditional: f+1 heaps plus
     their undo arenas. *)
  Alcotest.(check bool) "kamino ~ (f+2+1) heaps" true
    (Async.storage_bytes kam > 4 * engine_config.Engine.heap_bytes);
  Alcotest.(check bool) "traditional ~ (f+1) heaps" true
    (Async.storage_bytes trad < Async.storage_bytes kam)

(* A dynamic-backup head (Table 1's "dynamic head" row) replicates like a
   full-backup head and needs less NVM. *)
let test_dynamic_head () =
  let full = make_chain () in
  let dyn = make_chain ~mode:(Async.Kamino_chain { alpha = Some 0.2 }) () in
  Alcotest.(check bool) "head runs the dynamic backup" true
    (match Engine.kind (Async.engine_at dyn 0) with
    | Engine.Kamino_dynamic { alpha; _ } -> alpha = 0.2
    | _ -> false);
  for k = 0 to 19 do
    ignore (put dyn k (Printf.sprintf "d%d" k))
  done;
  check_consistent "dynamic head" dyn;
  Alcotest.(check (option string)) "read at tail" (Some "d11") (get dyn 11);
  Alcotest.(check bool)
    (Printf.sprintf "storage %d < full head's %d" (Async.storage_bytes dyn)
       (Async.storage_bytes full))
    true
    (Async.storage_bytes dyn < Async.storage_bytes full)

(* Aborts are decided at the head and never enter the chain: undo-logging
   heads roll back from the undo log, Kamino heads from the local backup. *)
let test_abort_stays_local () =
  List.iter
    (fun (name, mode) ->
      let c = make_chain ~mode () in
      ignore (put c 5 "committed");
      Kv.put_aborted (head_kv c) 5 "aborted-value";
      Alcotest.(check (option string)) (name ^ ": abort invisible") (Some "committed")
        (get c 5);
      check_consistent (name ^ " after abort") c)
    both_modes

(* --- Failures in both modes ------------------------------------------------- *)

let test_fail_stop_tail_and_mid () =
  List.iter
    (fun (name, mode) ->
      let c = make_chain ~mode () in
      let n = Async.length c in
      for k = 0 to 9 do
        ignore (put c k "v")
      done;
      Async.fail_stop_now c (Async.tail_id c);
      Alcotest.(check int) (name ^ ": one replica fewer") (n - 1)
        (List.length (Async.members c));
      ignore (put c 100 "after-tail-failure");
      Async.fail_stop_now c 1;
      ignore (put c 101 "after-mid-failure");
      check_consistent (name ^ " after failures") c;
      Alcotest.(check (option string)) (name ^ ": write after repairs")
        (Some "after-mid-failure") (get c 101);
      Alcotest.(check (option string)) (name ^ ": earlier write survives")
        (Some "after-tail-failure") (get c 100))
    both_modes

let test_head_failure_promotes () =
  List.iter
    (fun (name, mode) ->
      let c = make_chain ~mode () in
      for k = 0 to 9 do
        ignore (put c k (Printf.sprintf "v%d" k))
      done;
      Async.fail_stop_now c 0;
      (* Let a Kamino chain's promotion (the new head's backup build) run. *)
      ignore (Async.run c);
      Alcotest.(check int) (name ^ ": new head") 1 (Async.head_id c);
      Alcotest.(check bool) (name ^ ": new head can roll back locally") true
        (Engine.kind (Async.engine_at c 1) <> Engine.Intent_only);
      ignore (put c 50 "new-head-write");
      Kv.put_aborted (head_kv c) 50 "aborted";
      Alcotest.(check (option string)) (name ^ ": new head works") (Some "new-head-write")
        (get c 50);
      check_consistent (name ^ " after promotion") c)
    both_modes

let test_quick_reboot_head () =
  List.iter
    (fun (name, mode) ->
      let c = make_chain ~mode () in
      for k = 0 to 9 do
        ignore (put c k "stable")
      done;
      Async.reboot_now c (Async.head_id c);
      check_consistent (name ^ " after head reboot") c;
      ignore (put c 10 "post-reboot");
      Alcotest.(check (option string)) (name ^ ": head usable after reboot")
        (Some "post-reboot") (get c 10))
    both_modes

(* Leave a transaction torn on replica 2 (a Kamino chain's second middle
   replica, a traditional chain's tail). *)
let tear c ~key text =
  let kv = Async.kv_at c 2 in
  let vptr = Option.get (Kv.value_ptr kv key) in
  let tx = Engine.begin_tx (Kv.engine kv) in
  Engine.add tx vptr;
  Engine.write_string tx vptr 8 text

let test_quick_reboot_mid_with_incomplete_tx () =
  (* §5.3: an intent-only replica rolls its torn transaction forward from
     its predecessor; an undo-logging one rolls it back locally. *)
  List.iter
    (fun (name, mode) ->
      let c = make_chain ~mode () in
      for k = 0 to 5 do
        ignore (put c k (Printf.sprintf "v%d" k))
      done;
      tear c ~key:3 "torn-write-data";
      Async.reboot_now c 2;
      check_consistent (name ^ " after reboot") c;
      Alcotest.(check (option string)) (name ^ ": value restored") (Some "v3") (get c 3))
    both_modes

(* §5.3's data-integrity protocol: the whole chain loses power in one
   event and every replica reboots, head first, so each one that needs a
   neighbour recovers from an already repaired predecessor. *)
let test_whole_chain_restart () =
  List.iter
    (fun (name, mode) ->
      let c = make_chain ~mode () in
      for k = 0 to 19 do
        ignore (put c k (Printf.sprintf "v%d" k))
      done;
      tear c ~key:9 "half-written";
      Sim.schedule (Async.sim c) ~at:(now c) (fun () ->
          List.iter (fun i -> Async.reboot_now c i) (Async.members c));
      ignore (Async.run c);
      check_consistent (name ^ " whole-chain restart") c;
      Alcotest.(check (option string)) (name ^ ": torn value repaired") (Some "v9") (get c 9);
      ignore (put c 99 "post-restart");
      Alcotest.(check (option string)) (name ^ ": chain usable after restart")
        (Some "post-restart") (get c 99))
    both_modes

(* --- Membership --------------------------------------------------------------- *)

let test_membership_views () =
  let m = Membership.create ~members:[ 0; 1; 2; 3 ] ~failure_timeout_ns:1000 in
  Alcotest.(check int) "initial view id" 1 (Membership.current m).Membership.id;
  Alcotest.(check bool) "current accepted" true (Membership.validate m ~view_id:1 = `Current);
  let v2 = Membership.remove m 1 in
  Alcotest.(check int) "view id bumped" 2 v2.Membership.id;
  Alcotest.(check (list int)) "member removed" [ 0; 2; 3 ] v2.Membership.members;
  Alcotest.(check bool) "old view rejected" true
    (match Membership.validate m ~view_id:1 with `Stale v -> v.Membership.id = 2 | `Current -> false);
  let v3 = Membership.add_tail m 7 in
  Alcotest.(check (list int)) "tail appended" [ 0; 2; 3; 7 ] v3.Membership.members;
  Alcotest.(check bool) "duplicate member rejected" true
    (try ignore (Membership.add_tail m 7); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "removing non-member rejected" true
    (try ignore (Membership.remove m 99); false with Invalid_argument _ -> true)

let test_membership_neighbours () =
  let m = Membership.create ~members:[ 5; 6; 7 ] ~failure_timeout_ns:1000 in
  Alcotest.(check bool) "head" true (Membership.is_head m 5);
  Alcotest.(check (option int)) "head pred" None (Membership.predecessor m 5);
  Alcotest.(check (option int)) "mid pred" (Some 5) (Membership.predecessor m 6);
  Alcotest.(check (option int)) "mid succ" (Some 7) (Membership.successor m 6);
  Alcotest.(check (option int)) "tail succ" None (Membership.successor m 7);
  match Membership.rejoin m ~node:6 ~believed_view:1 with
  | `Member (_, Some 5, Some 7) -> ()
  | _ -> Alcotest.fail "rejoin neighbours wrong"

(* Node ids index the per-view neighbour tables, so a negative one is
   refused where it enters: at create and at add_tail. *)
let test_membership_negative_id () =
  let refused f = match f () with _ -> false | exception Invalid_argument _ -> true in
  Alcotest.(check bool) "create" true
    (refused (fun () -> Membership.create ~members:[ -1 ] ~failure_timeout_ns:1000));
  let m = Membership.create ~members:[ 0; 1 ] ~failure_timeout_ns:1000 in
  Alcotest.(check bool) "add_tail" true (refused (fun () -> Membership.add_tail m (-2)));
  Alcotest.(check (option int)) "lookup of an unknown id" None (Membership.successor m (-2))

let test_membership_rejoin_removed () =
  let m = Membership.create ~members:[ 1; 2; 3 ] ~failure_timeout_ns:1000 in
  ignore (Membership.remove m 2);
  match Membership.rejoin m ~node:2 ~believed_view:1 with
  | `Removed v -> Alcotest.(check int) "told the current view" 2 v.Membership.id
  | `Member _ -> Alcotest.fail "removed node must not rejoin silently"

(* Random interleavings of the membership operations preserve the view
   invariants: every change installs a strictly larger view id; views stay
   head-first (a removal keeps the survivors' relative order, an addition
   appends at the tail); and the Figure-9 rejoin contract holds — a node
   removed from the view is always told [`Removed], a member always gets
   its model-predicted neighbours and the view its model-predicted tail. *)
let membership_interleaving_qcheck =
  QCheck.Test.make ~name:"membership: random interleavings keep the view invariants"
    ~count:300
    QCheck.(list (pair (int_range 0 3) small_nat))
    (fun actions ->
      let m = Membership.create ~members:[ 0; 1; 2 ] ~failure_timeout_ns:1000 in
      let model = ref [ 0; 1; 2 ] in
      let removed = ref [] in
      let next_fresh = ref 3 in
      let last_id = ref (Membership.current m).Membership.id in
      let check_view label v =
        if v.Membership.id <= !last_id then
          QCheck.Test.fail_reportf "%s: view id %d not strictly increasing (last %d)"
            label v.Membership.id !last_id;
        last_id := v.Membership.id;
        if v.Membership.members <> !model then
          QCheck.Test.fail_reportf "%s: members [%s], model [%s]" label
            (String.concat ";" (List.map string_of_int v.Membership.members))
            (String.concat ";" (List.map string_of_int !model))
      in
      List.iter
        (fun (action, pick) ->
          match action with
          | 0 when List.length !model > 1 ->
              let victim = List.nth !model (pick mod List.length !model) in
              model := List.filter (fun n -> n <> victim) !model;
              removed := victim :: !removed;
              check_view "remove" (Membership.remove m victim)
          | 1 ->
              let fresh = !next_fresh in
              incr next_fresh;
              model := !model @ [ fresh ];
              check_view "add_tail" (Membership.add_tail m fresh)
          | 2 -> (
              (* Rejoin either a removed node or a member, with any stale
                 believed view. *)
              let pool = !removed @ !model in
              let node = List.nth pool (pick mod List.length pool) in
              let believed = 1 + (pick mod !last_id) in
              match Membership.rejoin m ~node ~believed_view:believed with
              | `Removed v ->
                  if List.mem node !model then
                    QCheck.Test.fail_reportf "member %d told `Removed" node;
                  if v.Membership.id <> !last_id then
                    QCheck.Test.fail_reportf "rejoin reported view %d, current is %d"
                      v.Membership.id !last_id
              | `Member (v, pred, succ) ->
                  if not (List.mem node !model) then
                    QCheck.Test.fail_reportf "removed node %d readmitted as member" node;
                  if v.Membership.id <> !last_id then
                    QCheck.Test.fail_reportf "rejoin reported view %d, current is %d"
                      v.Membership.id !last_id;
                  let idx = ref (-1) in
                  List.iteri (fun i n -> if n = node then idx := i) !model;
                  let expect_pred = if !idx = 0 then None else List.nth_opt !model (!idx - 1) in
                  let expect_succ = List.nth_opt !model (!idx + 1) in
                  if pred <> expect_pred || succ <> expect_succ then
                    QCheck.Test.fail_reportf "rejoin neighbours of %d wrong" node;
                  if Membership.tail m <> List.nth_opt (List.rev !model) 0 then
                    QCheck.Test.fail_reportf "tail wrong after rejoin of %d" node)
          | _ ->
              (* Validate: the current id passes, anything older is stale
                 and reports the current view. *)
              if Membership.validate m ~view_id:!last_id <> `Current then
                QCheck.Test.fail_reportf "current view id %d rejected" !last_id;
              if !last_id > 1 then
                match Membership.validate m ~view_id:(1 + (pick mod (!last_id - 1))) with
                | `Stale v when v.Membership.id = !last_id -> ()
                | `Stale v ->
                    QCheck.Test.fail_reportf "stale answer carried view %d, current %d"
                      v.Membership.id !last_id
                | `Current -> QCheck.Test.fail_reportf "stale view id accepted")
        actions;
      true)

let test_membership_failure_detector () =
  let m = Membership.create ~members:[ 1; 2 ] ~failure_timeout_ns:1000 in
  Membership.record_heartbeat m ~node:1 ~now:0;
  Membership.record_heartbeat m ~node:2 ~now:0;
  Alcotest.(check (list int)) "nobody suspected yet" [] (Membership.suspects m ~now:500);
  Membership.record_heartbeat m ~node:2 ~now:900;
  Alcotest.(check (list int)) "silent node suspected" [ 1 ] (Membership.suspects m ~now:1500)

let test_heartbeat_failure_detection_des () =
  (* Drive the failure detector from the discrete-event engine: replicas
     heartbeat every 1 ms; replica 2 goes silent at t = 5 ms (its last
     heartbeat lands at t = 4 ms); with a 10 ms detection timeout, exactly
     replica 2 must be suspected shortly after t = 14 ms, after which the
     chain is repaired and keeps working. *)
  let m = Membership.create ~members:[ 0; 1; 2; 3 ] ~failure_timeout_ns:10_000_000 in
  let sim = Sim.create () in
  let silent_from = 5_000_000 in
  let horizon = 20_000_000 in
  let rec schedule_heartbeats node at =
    if at <= horizon then
      Sim.schedule sim ~at (fun () ->
          if not (node = 2 && at >= silent_from) then begin
            Membership.record_heartbeat m ~node ~now:at;
            schedule_heartbeats node (at + 1_000_000)
          end)
  in
  List.iter (fun n -> schedule_heartbeats n 0) [ 0; 1; 2; 3 ];
  let detected = ref None in
  let rec poll at =
    Sim.schedule sim ~at (fun () ->
        match Membership.suspects m ~now:at with
        | [] -> if at < horizon then poll (at + 500_000)
        | suspects -> detected := Some (at, suspects))
  in
  poll 1_000_000;
  ignore (Sim.run sim);
  (match !detected with
  | Some (at, [ 2 ]) ->
      let last_heartbeat = silent_from - 1_000_000 in
      Alcotest.(check bool)
        (Printf.sprintf "detected at %d" at)
        true
        (at > last_heartbeat + 10_000_000 && at <= last_heartbeat + 12_000_000)
  | Some (_, others) ->
      Alcotest.failf "wrong suspects: %s" (String.concat "," (List.map string_of_int others))
  | None -> Alcotest.fail "silent replica never suspected");
  (* act on the detection: remove the replica and keep serving *)
  let c = make_chain () in
  ignore (put c 0 "before-detection");
  Async.fail_stop_now c 2;
  ignore (put c 1 "after-detection");
  Alcotest.(check (option string)) "chain repaired" (Some "after-detection") (get c 1);
  check_consistent "after detection" c

let () =
  Alcotest.run "async_chain"
    [
      ( "op",
        [
          Alcotest.test_case "encode/decode roundtrip" `Quick test_op_roundtrip;
          Alcotest.test_case "decode rejects garbage" `Quick test_op_decode_garbage;
          Alcotest.test_case "apply semantics" `Quick test_op_apply;
          Alcotest.test_case "golden encoding" `Quick test_op_golden_encoding;
          Alcotest.test_case "in-place decode bounds" `Quick test_op_decode_sub_bounds;
        ] );
      ( "opqueue",
        [
          Alcotest.test_case "fifo" `Quick test_queue_fifo;
          Alcotest.test_case "wraparound" `Quick test_queue_wraparound;
          Alcotest.test_case "full" `Quick test_queue_full;
          Alcotest.test_case "drop_through" `Quick test_queue_drop_through;
          Alcotest.test_case "crash durability" `Quick test_queue_crash_durability;
          Alcotest.test_case "torn publishes" `Quick test_queue_torn_publishes;
          Alcotest.test_case "golden image reopens" `Quick test_queue_golden_image;
          Alcotest.test_case "typed corruption" `Quick test_queue_corruption_typed;
          Alcotest.test_case "zero-allocation op path" `Quick test_queue_zero_alloc;
          Alcotest.test_case "drop_peeked loads nothing" `Quick test_queue_drop_peeked;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "replication" `Quick test_async_replication;
          Alcotest.test_case "full round-trip completion" `Quick
            test_async_completion_after_full_round_trip;
          Alcotest.test_case "reads at tail" `Quick test_async_reads_at_tail;
          Alcotest.test_case "quick reboot mid-propagation" `Quick
            test_async_quick_reboot_mid_propagation;
          Alcotest.test_case "repeated random reboots" `Quick
            test_async_repeated_reboots_random;
          Alcotest.test_case "corrupt input slot detected on reboot" `Quick
            test_corrupt_input_slot_detected;
          Alcotest.test_case "hop cost is exact" `Quick test_hop_cost_is_exact;
          Alcotest.test_case "per-op allocation bound" `Quick test_chain_op_allocation;
          Alcotest.test_case "queue images pinned" `Quick test_queue_images_pinned;
          Alcotest.test_case "hops leave at commit end" `Quick test_hop_leaves_at_commit;
        ] );
      ( "replication",
        [
          Alcotest.test_case "replica counts" `Quick test_replica_counts;
          Alcotest.test_case "writes replicate" `Quick test_writes_replicate;
          Alcotest.test_case "rmw and delete replicate" `Quick test_rmw_and_delete_replicate;
          Alcotest.test_case "random workload consistency" `Quick
            test_random_workload_consistency;
          Alcotest.test_case "dynamic head" `Quick test_dynamic_head;
        ] );
      ( "timing",
        [
          Alcotest.test_case "latency includes hops" `Quick test_write_latency_includes_hops;
          Alcotest.test_case "kamino beats traditional" `Quick
            test_kamino_chain_faster_than_traditional;
          Alcotest.test_case "dependent write does not wait for the ack" `Quick
            test_dependent_write_does_not_wait_for_ack;
          Alcotest.test_case "storage accounting" `Quick test_storage_accounting;
        ] );
      ("aborts", [ Alcotest.test_case "abort stays local" `Quick test_abort_stays_local ]);
      ( "membership",
        [
          Alcotest.test_case "views" `Quick test_membership_views;
          Alcotest.test_case "neighbours" `Quick test_membership_neighbours;
          Alcotest.test_case "rejoin after removal" `Quick test_membership_rejoin_removed;
          Alcotest.test_case "failure detector" `Quick test_membership_failure_detector;
          Alcotest.test_case "heartbeat failure detection (DES)" `Quick
            test_heartbeat_failure_detection_des;
          Alcotest.test_case "negative node id refused" `Quick test_membership_negative_id;
        ] );
      ( "failures",
        [
          Alcotest.test_case "fail-stop tail and mid" `Quick test_fail_stop_tail_and_mid;
          Alcotest.test_case "head failure promotes" `Quick test_head_failure_promotes;
          Alcotest.test_case "quick reboot head" `Quick test_quick_reboot_head;
          Alcotest.test_case "quick reboot mid with incomplete tx" `Quick
            test_quick_reboot_mid_with_incomplete_tx;
          Alcotest.test_case "whole-chain restart" `Quick test_whole_chain_restart;
        ] );
      ( "qcheck",
        [
          QCheck_alcotest.to_alcotest op_roundtrip_qcheck;
          QCheck_alcotest.to_alcotest checksum_qcheck;
          QCheck_alcotest.to_alcotest membership_interleaving_qcheck;
        ] );
    ]
