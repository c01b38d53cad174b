module Rng = Kamino_sim.Rng
module Clock = Kamino_sim.Clock
module Obs = Kamino_obs.Obs

let line_size = 64

type crash_mode = Words_survive_randomly | Lines_survive_randomly | Drop_unflushed

(* Single-field float records are stored flat, so mutating [v] writes the
   double in place. A [mutable float] field in the mixed record [t] below
   would instead allocate a fresh boxed float on {e every} cost charge —
   i.e. on every load and store the simulation models. *)
type fcarry = { mutable v : float }

type counters = {
  mutable stores : int;
  mutable bytes_stored : int;
  mutable loads : int;
  mutable bytes_loaded : int;
  mutable lines_flushed : int;
  mutable fences : int;
  mutable bytes_copied : int;
  mutable copies : int;
  mutable allocs : int;
  mutable frees : int;
  mutable index_ops : int;
  mutable log_entries : int;
  mutable clflush_lines : int;
  mutable tx_begins : int;
  mutable crashes : int;
}

(* A line is in one of three states: clean, dirty (stored to since its
   last flush) or pending (flushed, durable at the next fence). The dirty
   and pending bitsets are disjoint and padded to a whole number of 64-bit
   words so the scan loops can zero-test eight lines' worth of bytes at a
   time. [dirty_lo] / [dirty_hi] bound the lines that may be dirty (in line
   units, inclusive), [pend_lo] / [pend_hi] those that may be pending;
   every set bit lies inside its interval, which lets flush/crash/query
   skip the rest of the bitmap entirely. An empty set is represented as
   lo = max_int, hi = -1.

   A store to a pending line must not change what the fence will make
   durable: that is the content the flush wrote back. So the store first
   stages a copy of the line ([staged_lines] / [staged], in store order)
   and the line leaves the pending set; the fence writes the staged copies
   back, oldest first, then the pending lines of the flushed runs from the
   volatile image. *)
type t = {
  size : int;
  volatile : Bytes.t;
  persistent : Bytes.t;
  dirty : Bytes.t;  (* bitset, one bit per line, padded to 8-byte words *)
  mutable dirty_lo : int;
  mutable dirty_hi : int;
  pending : Bytes.t;  (* bitset like [dirty]; disjoint from it *)
  mutable pend_lo : int;
  mutable pend_hi : int;
  mutable pend_runs : int array;
      (* the flushed runs since the last commit, as (first, last) line
         pairs: the fence writes back these, not the whole watermark span *)
  mutable n_pend_runs : int;
  mutable staged_lines : int array;  (* line index of each staged copy *)
  mutable staged : Bytes.t;  (* copy [i] at [i * line_size] *)
  mutable n_staged : int;
  mutable listed : bool;  (* in the pending set of the domain that flushed it *)
  mutable clock : Clock.t;
  frac_ns : fcarry;  (* sub-nanosecond cost carry *)
  cost : Cost_model.t;
  crash_mode : crash_mode;
  rng : Rng.t;
  counters : counters;
  (* Tracing: [obs] is [Obs.null] unless the owner opted in, making every
     instrumentation site below a single load-and-branch. Events never
     touch the clock, so enabling them cannot move a simulated ns. *)
  mutable obs : Obs.t;
  mutable obs_track : int;
}

let zero_counters () =
  {
    stores = 0;
    bytes_stored = 0;
    loads = 0;
    bytes_loaded = 0;
    lines_flushed = 0;
    fences = 0;
    bytes_copied = 0;
    copies = 0;
    allocs = 0;
    frees = 0;
    index_ops = 0;
    log_entries = 0;
    clflush_lines = 0;
    tx_begins = 0;
    crashes = 0;
  }

let alloc ~cost ~crash_mode ~rng ~clock ~size =
  let nlines = (size + line_size - 1) / line_size in
  {
    size;
    volatile = Bytes.make size '\000';
    persistent = Bytes.make size '\000';
    dirty = Bytes.make ((nlines + 63) / 64 * 8) '\000';
    dirty_lo = max_int;
    dirty_hi = -1;
    pending = Bytes.make ((nlines + 63) / 64 * 8) '\000';
    pend_lo = max_int;
    pend_hi = -1;
    pend_runs = [||];
    n_pend_runs = 0;
    staged_lines = [||];
    staged = Bytes.empty;
    n_staged = 0;
    listed = false;
    clock;
    frac_ns = { v = 0.0 };
    cost;
    crash_mode;
    rng;
    counters = zero_counters ();
    obs = Obs.null;
    obs_track = 0;
  }

let size t = t.size

let cost_model t = t.cost

let set_clock t clock = t.clock <- clock

let clock t = t.clock

let set_obs t ?(track = 0) obs =
  t.obs <- obs;
  t.obs_track <- track

let obs t = t.obs

let[@inline] charge t ns =
  let total = ns +. t.frac_ns.v in
  let whole = int_of_float total in
  t.frac_ns.v <- total -. float_of_int whole;
  if whole > 0 then Clock.advance t.clock whole

(* The typed charges: each counts one unit of a {!Cost_model} term and
   charges its constant, so a clock's advance is the dot product of the
   counters with the cost model (plus lock costs, waits and the carry). *)
let charge_alloc t =
  t.counters.allocs <- t.counters.allocs + 1;
  charge t t.cost.Cost_model.alloc_ns

let charge_free t =
  t.counters.frees <- t.counters.frees + 1;
  charge t t.cost.Cost_model.free_ns

let charge_index t =
  t.counters.index_ops <- t.counters.index_ops + 1;
  charge t t.cost.Cost_model.index_ns

let charge_log_entry t =
  t.counters.log_entries <- t.counters.log_entries + 1;
  charge t t.cost.Cost_model.log_entry_ns

let charge_clflush t lines =
  t.counters.clflush_lines <- t.counters.clflush_lines + lines;
  charge t (t.cost.Cost_model.clflush_ns *. float_of_int lines)

let charge_tx_begin t =
  t.counters.tx_begins <- t.counters.tx_begins + 1;
  charge t t.cost.Cost_model.tx_overhead_ns

let carry_ns t = t.frac_ns.v

(* [len > size - off], not [off + len > size]: no [len] can wrap the sum. *)
let check_range t off len name =
  if off < 0 || len < 0 || len > t.size - off then
    invalid_arg (Printf.sprintf "Region.%s: range [%d,+%d) out of bounds (size %d)" name off len t.size)

(* Little-endian int accessors assembled from 16-bit pieces. On a 64-bit
   system these compile to immediate-int arithmetic; [Bytes.get_int64_le]
   returns a boxed [Int64.t] that allocates on every call without flambda.
   The encoding is bit-identical to [Int64.of_int] / [Int64.to_int]: the
   final word is taken with an arithmetic shift so byte 7's top bit carries
   the OCaml int's sign, exactly as [Int64.of_int] sign-extends it. *)

(* Raw 16-bit loads/stores without per-call bounds checks: every caller
   sits behind a [check_range] (or reads the fixed-size dirty bitset at
   word-aligned offsets derived from in-range line numbers), so the four
   checks [Bytes.get_uint16_le] would repeat per 64-bit access are pure
   overhead on the hottest loops in the simulator. The primitives are
   native-endian, hence the compile-time byte-swap on big-endian hosts,
   mirroring the stdlib's own implementation. *)
external unsafe_get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"
external unsafe_set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"

let swap16 x = ((x land 0xff) lsl 8) lor ((x lsr 8) land 0xff)

let get16_le b off =
  if Sys.big_endian then swap16 (unsafe_get16 b off) else unsafe_get16 b off

let set16_le b off v =
  if Sys.big_endian then unsafe_set16 b off (swap16 v) else unsafe_set16 b off v

let get_int_le b off =
  get16_le b off
  lor (get16_le b (off + 2) lsl 16)
  lor (get16_le b (off + 4) lsl 32)
  lor (get16_le b (off + 6) lsl 48)

let set_int_le b off v =
  set16_le b off (v land 0xffff);
  set16_le b (off + 2) ((v lsr 16) land 0xffff);
  set16_le b (off + 4) ((v lsr 32) land 0xffff);
  set16_le b (off + 6) ((v asr 48) land 0xffff)

(* Dirty bitset operations. *)

let clear_dirty_line t line =
  let byte = line lsr 3 and bit = line land 7 in
  let v = Char.code (Bytes.unsafe_get t.dirty byte) in
  Bytes.unsafe_set t.dirty byte (Char.unsafe_chr (v land lnot (1 lsl bit)))

let or_dirty_byte t byte mask =
  Bytes.unsafe_set t.dirty byte
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.dirty byte) lor mask))

let bit_is_set bits line =
  Char.code (Bytes.unsafe_get bits (line lsr 3)) land (1 lsl (line land 7)) <> 0

let set_bit bits line =
  let byte = line lsr 3 in
  Bytes.unsafe_set bits byte
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get bits byte) lor (1 lsl (line land 7))))

let clear_bit bits line =
  let byte = line lsr 3 in
  Bytes.unsafe_set bits byte
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get bits byte) land lnot (1 lsl (line land 7))))

let line_len t line = min line_size (t.size - (line * line_size))

let grow_staged t =
  let cap = max 4 (2 * Array.length t.staged_lines) in
  let lines = Array.make cap 0 and buf = Bytes.create (cap * line_size) in
  Array.blit t.staged_lines 0 lines 0 t.n_staged;
  Bytes.blit t.staged 0 buf 0 (t.n_staged * line_size);
  t.staged_lines <- lines;
  t.staged <- buf

(* A store is about to land on lines [first..last]: stage a copy of each
   pending one, which is what its flush wrote back, and take it out of the
   pending set (see [t]). *)
let stage_pending t first last =
  let a = if first > t.pend_lo then first else t.pend_lo in
  let b = if last < t.pend_hi then last else t.pend_hi in
  for line = a to b do
    if bit_is_set t.pending line then begin
      if t.n_staged = Array.length t.staged_lines then grow_staged t;
      Bytes.blit t.volatile (line * line_size) t.staged (t.n_staged * line_size)
        (line_len t line);
      t.staged_lines.(t.n_staged) <- line;
      t.n_staged <- t.n_staged + 1;
      clear_bit t.pending line
    end
  done

let mark_dirty t off len =
  if len > 0 then begin
    let first = off / line_size and last = (off + len - 1) / line_size in
    if first <= t.pend_hi && last >= t.pend_lo then stage_pending t first last;
    if first < t.dirty_lo then t.dirty_lo <- first;
    if last > t.dirty_hi then t.dirty_hi <- last;
    let fb = first lsr 3 and lb = last lsr 3 in
    if fb = lb then
      or_dirty_byte t fb (((1 lsl (last - first + 1)) - 1) lsl (first land 7))
    else begin
      or_dirty_byte t fb (0xff lsl (first land 7) land 0xff);
      if lb > fb + 1 then Bytes.fill t.dirty (fb + 1) (lb - fb - 1) '\xff';
      or_dirty_byte t lb ((1 lsl ((last land 7) + 1)) - 1)
    end
  end

(* Stores.

   The [_unchecked] halves update counters, dirty lines and simulated cost
   exactly as the checked entry points do; [unsafe_read_int] uses the load
   half after the caller has validated the enclosing range once. *)

(* The cost arithmetic is open-coded here rather than calling
   [Cost_model.store_cost]/[charge]: without flambda a float returned
   across a function boundary is boxed, which put several allocations on
   every simulated load and store. Open-coded, every intermediate stays in
   a register. The arithmetic (and hence the clock) is unchanged. *)
let record_store_unchecked t off len =
  t.counters.stores <- t.counters.stores + 1;
  t.counters.bytes_stored <- t.counters.bytes_stored + len;
  mark_dirty t off len;
  let c = t.cost in
  let ns = c.Cost_model.store_overhead_ns +. (c.Cost_model.store_ns_per_byte *. float_of_int len) in
  let total = ns +. t.frac_ns.v in
  let whole = int_of_float total in
  t.frac_ns.v <- total -. float_of_int whole;
  if whole > 0 then Clock.advance t.clock whole

let record_store t off len =
  check_range t off len "write";
  record_store_unchecked t off len

let write_bytes t off b =
  record_store t off (Bytes.length b);
  Bytes.blit b 0 t.volatile off (Bytes.length b)

let write_string t off s =
  record_store t off (String.length s);
  Bytes.blit_string s 0 t.volatile off (String.length s)

let write_int64 t off v =
  record_store t off 8;
  Bytes.set_int64_le t.volatile off v

let write_int32 t off v =
  record_store t off 4;
  Bytes.set_int32_le t.volatile off v

let write_int t off v =
  record_store t off 8;
  set_int_le t.volatile off v

let write_byte t off v =
  record_store t off 1;
  Bytes.set_uint8 t.volatile off (v land 0xff)

(* Loads. *)

let record_load_unchecked t len =
  t.counters.loads <- t.counters.loads + 1;
  t.counters.bytes_loaded <- t.counters.bytes_loaded + len;
  let c = t.cost in
  let ns = c.Cost_model.load_overhead_ns +. (c.Cost_model.load_ns_per_byte *. float_of_int len) in
  let total = ns +. t.frac_ns.v in
  let whole = int_of_float total in
  t.frac_ns.v <- total -. float_of_int whole;
  if whole > 0 then Clock.advance t.clock whole

let record_load t off len =
  check_range t off len "read";
  record_load_unchecked t len

let read_bytes t off len =
  record_load t off len;
  Bytes.sub t.volatile off len

let read_string t off len =
  record_load t off len;
  Bytes.sub_string t.volatile off len

let charge_load t off len = record_load t off len

exception Corrupt of { structure : string; off : int; what : string }

let corrupt ~structure ~off fmt =
  Printf.ksprintf (fun what -> raise (Corrupt { structure; off; what })) fmt

let read_prefixed t off ~max =
  check_range t off 8 "read_prefixed";
  let len = get_int_le t.volatile off in
  if len < 0 || len > max then begin
    record_load_unchecked t 8;
    corrupt ~structure:"record" ~off "length %d outside [0, %d]" len max
  end;
  record_load t off (8 + len);
  Bytes.sub_string t.volatile (off + 8) len

let read_into t off dst pos len =
  if pos < 0 || len < 0 || pos + len > Bytes.length dst then
    invalid_arg "Region.read_into: destination range out of bounds";
  record_load t off len;
  Bytes.blit t.volatile off dst pos len

let read_int64 t off =
  record_load t off 8;
  Bytes.get_int64_le t.volatile off

let read_int32 t off =
  record_load t off 4;
  Bytes.get_int32_le t.volatile off

let read_int t off =
  record_load t off 8;
  get_int_le t.volatile off

let read_byte t off =
  record_load t off 1;
  Bytes.get_uint8 t.volatile off

let unsafe_read_int t off =
  record_load_unchecked t 8;
  get_int_le t.volatile off

let equal_ranges a aoff b boff len =
  check_range a aoff len "equal_ranges";
  check_range b boff len "equal_ranges";
  record_load_unchecked a len;
  record_load_unchecked b len;
  let av = a.volatile and bv = b.volatile in
  let words = len lsr 3 in
  let rec word_eq i =
    i >= words
    || (get_int_le av (aoff + (i lsl 3)) = get_int_le bv (boff + (i lsl 3))
       && word_eq (i + 1))
  in
  let rec byte_eq i =
    i >= len
    || (Bytes.unsafe_get av (aoff + i) = Bytes.unsafe_get bv (boff + i)
       && byte_eq (i + 1))
  in
  word_eq 0 && byte_eq (words lsl 3)

(* One 63-bit mixing step: xor in a word, multiply by an odd constant,
   fold the high bits down. Each step is a bijection of [h] for a given
   word, so a difference anywhere survives to the end. Immediate-int
   arithmetic only. *)
let mix h w =
  let h = (h lxor w) * 0x27BB2EE687B0B0FD in
  h lxor (h lsr 29)

(* A whole little-endian word as an unboxed [int64]: one load instead of
   [get_int_le]'s four, and, consumed by [Int64] primitives at once, no
   allocation. *)
external unsafe_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let hash_range t off len h =
  check_range t off len "hash_range";
  record_load_unchecked t len;
  let v = t.volatile in
  let words = len lsr 3 in
  let h = ref (mix h len) in
  for i = 0 to words - 1 do
    let o = off + (i lsl 3) in
    let x = if Sys.big_endian then swap64 (unsafe_get64 v o) else unsafe_get64 v o in
    (* A 63-bit int drops the word's top bit; fold it in as a constant. *)
    let top = Int64.to_int (Int64.shift_right_logical x 63) in
    h := mix !h (Int64.to_int x lxor (top * 0x1D8E4E27C47D124F))
  done;
  let tail = ref 0 in
  for i = len - 1 downto words lsl 3 do
    tail := (!tail lsl 8) lor Bytes.get_uint8 v (off + i)
  done;
  if len land 7 <> 0 then mix !h !tail else !h

let fill t off len byte =
  record_store t off len;
  Bytes.fill t.volatile off len (Char.chr (byte land 0xff))

let blit t ~src ~dst ~len =
  check_range t src len "blit:src";
  check_range t dst len "blit:dst";
  t.counters.bytes_copied <- t.counters.bytes_copied + len;
  t.counters.copies <- t.counters.copies + 1;
  mark_dirty t dst len;
  charge t (Cost_model.copy_cost t.cost len);
  Bytes.blit t.volatile src t.volatile dst len

let blit_uncharged t ~src ~dst ~len =
  check_range t src len "blit_uncharged:src";
  check_range t dst len "blit_uncharged:dst";
  mark_dirty t dst len;
  Bytes.blit t.volatile src t.volatile dst len

let copy_between ~src ~src_off ~dst ~dst_off ~len =
  check_range src src_off len "copy_between:src";
  check_range dst dst_off len "copy_between:dst";
  dst.counters.bytes_copied <- dst.counters.bytes_copied + len;
  dst.counters.copies <- dst.counters.copies + 1;
  mark_dirty dst dst_off len;
  charge dst (Cost_model.copy_cost dst.cost len);
  Bytes.blit src.volatile src_off dst.volatile dst_off len

(* Persistence.

   The scan loops below all follow the same shape: clamp the requested line
   range to the [dirty_lo, dirty_hi] watermark, then walk the bitset one
   64-bit word (64 lines) at a time, zero-testing each word as four 16-bit
   loads (immediate ints — a single [Bytes.get_int64_le] would both allocate
   and silently lose line 63 of the word if narrowed to an OCaml int).
   Nonzero words decay to a per-byte, per-bit walk in ascending line order,
   which keeps the flush/RNG sequencing identical to the naive per-line
   loop this replaces. *)

let word_nonzero d bo =
  unsafe_get16 d bo
  lor unsafe_get16 d (bo + 2)
  lor unsafe_get16 d (bo + 4)
  lor unsafe_get16 d (bo + 6)
  <> 0

(* A region's pending lines are listed in the pending set of the domain
   that flushed them; any fence on that domain makes them durable, as an
   x86 fence orders every earlier flush of its core whatever the address.
   Entries at or past [n] are stale: [dummy] replaces them whenever a
   region is created or the set is handed off, so the set retains no
   region for long. *)
type pendset = { mutable regs : t array; mutable n : int }

let dummy =
  alloc ~cost:Cost_model.default ~crash_mode:Drop_unflushed ~rng:(Rng.create 0)
    ~clock:(Clock.create ()) ~size:1

let pendset_key = Domain.DLS.new_key (fun () -> { regs = Array.make 16 dummy; n = 0 })

let clear_stale s = Array.fill s.regs s.n (Array.length s.regs - s.n) dummy

let create ?(cost = Cost_model.default) ?(crash_mode = Words_survive_randomly) ~rng
    ~clock ~size () =
  if size <= 0 then invalid_arg "Region.create: size must be positive";
  clear_stale (Domain.DLS.get pendset_key);
  alloc ~cost ~crash_mode ~rng ~clock ~size

let list_pending t =
  let s = Domain.DLS.get pendset_key in
  if s.n = Array.length s.regs then begin
    let regs = Array.make (2 * s.n) dummy in
    Array.blit s.regs 0 regs 0 s.n;
    s.regs <- regs
  end;
  s.regs.(s.n) <- t;
  s.n <- s.n + 1;
  t.listed <- true

let hand_off () =
  let s = Domain.DLS.get pendset_key in
  for i = 0 to s.n - 1 do
    s.regs.(i).listed <- false
  done;
  s.n <- 0;
  clear_stale s

(* Flush the contiguous dirty run [l0..l1]: its lines move to the pending
   set, to be written back at the next fence. The per-line bookkeeping —
   bitset updates, lines_flushed, and the flush_line_ns charge with its
   fractional-ns carry — runs once per line in ascending order, so every
   counter and the simulated clock end up bit-identical to a per-line
   loop ({!Clock.advance} is a plain add, so one advance of the summed
   whole-ns is the same as one per line). *)
let pend_run t l0 l1 =
  let ns = t.cost.Cost_model.flush_line_ns in
  let acc = ref 0 in
  for line = l0 to l1 do
    clear_dirty_line t line;
    set_bit t.pending line;
    let total = ns +. t.frac_ns.v in
    let whole = int_of_float total in
    t.frac_ns.v <- total -. float_of_int whole;
    acc := !acc + whole
  done;
  if l0 < t.pend_lo then t.pend_lo <- l0;
  if l1 > t.pend_hi then t.pend_hi <- l1;
  let n = t.n_pend_runs in
  if n > 0 && t.pend_runs.((2 * n) - 1) = l0 - 1 then t.pend_runs.((2 * n) - 1) <- l1
  else begin
    if 2 * n = Array.length t.pend_runs then begin
      let runs = Array.make (max 8 (4 * n)) 0 in
      Array.blit t.pend_runs 0 runs 0 (2 * n);
      t.pend_runs <- runs
    end;
    t.pend_runs.(2 * n) <- l0;
    t.pend_runs.((2 * n) + 1) <- l1;
    t.n_pend_runs <- n + 1
  end;
  t.counters.lines_flushed <- t.counters.lines_flushed + (l1 - l0 + 1);
  if !acc > 0 then Clock.advance t.clock !acc;
  if not t.listed then list_pending t

(* Write the run [l0..l1] of the volatile image back to the persistent
   one. *)
let write_back t l0 l1 =
  let off = l0 * line_size in
  Bytes.blit t.volatile off t.persistent off (min ((l1 + 1) * line_size) t.size - off)

(* Make [t]'s staged copies, oldest first, then its pending lines durable:
   each flushed run's lines that are still pending (a store may have
   staged some away), one blit per stretch. *)
let commit t =
  for i = 0 to t.n_staged - 1 do
    let line = t.staged_lines.(i) in
    Bytes.blit t.staged (i * line_size) t.persistent (line * line_size) (line_len t line)
  done;
  t.n_staged <- 0;
  for r = 0 to t.n_pend_runs - 1 do
    let l1 = t.pend_runs.((2 * r) + 1) in
    let rs = ref (-1) in
    for line = t.pend_runs.(2 * r) to l1 do
      if bit_is_set t.pending line then begin
        clear_bit t.pending line;
        if !rs < 0 then rs := line
      end
      else if !rs >= 0 then begin
        write_back t !rs (line - 1);
        rs := -1
      end
    done;
    if !rs >= 0 then write_back t !rs l1
  done;
  t.n_pend_runs <- 0;
  t.pend_lo <- max_int;
  t.pend_hi <- -1

let commit_pending () =
  let s = Domain.DLS.get pendset_key in
  for i = 0 to s.n - 1 do
    let r = s.regs.(i) in
    commit r;
    r.listed <- false
  done;
  s.n <- 0

let flush_quiet t off len =
  check_range t off len "flush";
  if len > 0 then begin
    let first = off / line_size and last = (off + len - 1) / line_size in
    let a = if first > t.dirty_lo then first else t.dirty_lo in
    let b = if last < t.dirty_hi then last else t.dirty_hi in
    if a <= b then begin
      let d = t.dirty in
      (* Track the pending run of consecutive dirty lines; a gap (or end
         of scan) flushes it with one blit. *)
      let rs = ref (-1) and re = ref (-2) in
      for w = a lsr 6 to b lsr 6 do
        let bo = w lsl 3 in
        if word_nonzero d bo then
          for byte = bo to bo + 7 do
            let v = Char.code (Bytes.unsafe_get d byte) in
            if v <> 0 then begin
              let base = byte lsl 3 in
              for bit = 0 to 7 do
                if v land (1 lsl bit) <> 0 then begin
                  let line = base + bit in
                  if line >= a && line <= b then
                    if line = !re + 1 then re := line
                    else begin
                      if !rs >= 0 then pend_run t !rs !re;
                      rs := line;
                      re := line
                    end
                end
              done
            end
          done
      done;
      if !rs >= 0 then pend_run t !rs !re;
      (* A flush reaching down to the low watermark leaves nothing dirty at
         or below [b]; pull the watermark up past it (or empty it). *)
      if first <= t.dirty_lo then
        if last >= t.dirty_hi then begin
          t.dirty_lo <- max_int;
          t.dirty_hi <- -1
        end
        else t.dirty_lo <- b + 1
    end
  end

let flush t off len =
  if Obs.enabled t.obs then begin
    let t0 = Clock.now t.clock in
    let lf0 = t.counters.lines_flushed in
    flush_quiet t off len;
    let lines = t.counters.lines_flushed - lf0 in
    if lines > 0 then
      Obs.emit t.obs ~kind:Obs.k_flush ~track:t.obs_track ~ts:t0
        ~dur:(Clock.now t.clock - t0) ~a:lines ~b:off ~c:0
  end
  else flush_quiet t off len

(* Crash-point injection for tests: fences left to pass before [at_fence]'s
   callback runs, [-1] when disarmed. One process-wide countdown, so it
   counts fences across every region; disarmed, [fence] pays one compare
   and writes nothing, which keeps it safe to read from every domain. *)
let fence_countdown = ref (-1)
let fence_callback = ref ignore

let at_fence n f =
  if n < 0 then invalid_arg "Region.at_fence: negative fence index";
  fence_callback := f;
  fence_countdown := n

let disarm_fence () =
  fence_countdown := -1;
  fence_callback := ignore

let fence_armed () =
  if !fence_countdown = 0 then begin
    let f = !fence_callback in
    disarm_fence ();
    f ()
  end
  else decr fence_countdown

let fence t =
  if !fence_countdown >= 0 then fence_armed ();
  commit_pending ();
  t.counters.fences <- t.counters.fences + 1;
  if Obs.enabled t.obs then begin
    let t0 = Clock.now t.clock in
    charge t t.cost.Cost_model.fence_ns;
    Obs.emit t.obs ~kind:Obs.k_fence ~track:t.obs_track ~ts:t0
      ~dur:(Clock.now t.clock - t0) ~a:0 ~b:0 ~c:0
  end
  else charge t t.cost.Cost_model.fence_ns

let persist t off len =
  flush t off len;
  fence t

let flush_all_quiet t =
  if t.dirty_lo <= t.dirty_hi then begin
    let d = t.dirty in
    let rs = ref (-1) and re = ref (-2) in
    for w = t.dirty_lo lsr 6 to t.dirty_hi lsr 6 do
      let bo = w lsl 3 in
      if word_nonzero d bo then
        for byte = bo to bo + 7 do
          let v = Char.code (Bytes.unsafe_get d byte) in
          if v <> 0 then begin
            let base = byte lsl 3 in
            for bit = 0 to 7 do
              if v land (1 lsl bit) <> 0 then begin
                let line = base + bit in
                if line = !re + 1 then re := line
                else begin
                  if !rs >= 0 then pend_run t !rs !re;
                  rs := line;
                  re := line
                end
              end
            done
          end
        done
    done;
    if !rs >= 0 then pend_run t !rs !re;
    t.dirty_lo <- max_int;
    t.dirty_hi <- -1
  end

let flush_all t =
  if Obs.enabled t.obs then begin
    let t0 = Clock.now t.clock in
    let lf0 = t.counters.lines_flushed in
    let off0 = if t.dirty_lo <= t.dirty_hi then t.dirty_lo * line_size else 0 in
    flush_all_quiet t;
    let lines = t.counters.lines_flushed - lf0 in
    if lines > 0 then
      Obs.emit t.obs ~kind:Obs.k_flush ~track:t.obs_track ~ts:t0
        ~dur:(Clock.now t.clock - t0) ~a:lines ~b:off0 ~c:0
  end
  else flush_all_quiet t

let persist_all t =
  flush_all t;
  fence t

(* Crash simulation. *)

(* The line's image in [src] at [soff] — the volatile image, or a staged
   copy — against the persistent one. Within an evicted or in-flight line
   only aligned 8-byte words are atomic: each modified word independently
   reaches the medium or not. *)
let crash_line_words t src soff line =
  let off = line * line_size in
  let len = line_len t line in
  let words = len / 8 in
  for w = 0 to words - 1 do
    let woff = off + (w * 8) and sw = soff + (w * 8) in
    let v = get_int_le src sw in
    let p = get_int_le t.persistent woff in
    if v <> p then begin
      if Rng.bool t.rng then Bytes.blit src sw t.persistent woff 8
    end
    else if Bytes.get_int64_le src sw <> Bytes.get_int64_le t.persistent woff then begin
      (* [get_int_le] drops bit 63; fall back to the full comparison for
         the one-in-2^63 narrowed collision so no modified word is missed. *)
      if Rng.bool t.rng then Bytes.blit src sw t.persistent woff 8
    end
  done;
  (* Tail bytes of a short final line persist byte-by-byte. *)
  for b = words * 8 to len - 1 do
    let v = Bytes.get src (soff + b) in
    let p = Bytes.get t.persistent (off + b) in
    if v <> p && Rng.bool t.rng then Bytes.set t.persistent (off + b) v
  done

let crash_evict_line t src soff line =
  if Rng.bool t.rng then Bytes.blit src soff t.persistent (line * line_size) (line_len t line)

(* A pending line is no more durable than a dirty one: it crashes the same
   way, from its staged copies (oldest first) then from the volatile
   image, lines in ascending order. *)
let crash t =
  t.counters.crashes <- t.counters.crashes + 1;
  (if t.crash_mode <> Drop_unflushed then begin
     let words_mode = t.crash_mode = Words_survive_randomly in
     for i = 0 to t.n_staged - 1 do
       let line = t.staged_lines.(i) in
       if words_mode then crash_line_words t t.staged (i * line_size) line
       else crash_evict_line t t.staged (i * line_size) line
     done;
     let lo = min t.dirty_lo t.pend_lo and hi = max t.dirty_hi t.pend_hi in
     let d = t.dirty and p = t.pending in
     if lo <= hi then
       for w = lo lsr 6 to hi lsr 6 do
         let bo = w lsl 3 in
         if word_nonzero d bo || word_nonzero p bo then
           for byte = bo to bo + 7 do
             let v = Char.code (Bytes.unsafe_get d byte) lor Char.code (Bytes.unsafe_get p byte) in
             if v <> 0 then begin
               let base = byte lsl 3 in
               for bit = 0 to 7 do
                 if v land (1 lsl bit) <> 0 then begin
                   let line = base + bit in
                   if words_mode then crash_line_words t t.volatile (line * line_size) line
                   else crash_evict_line t t.volatile (line * line_size) line
                 end
               done
             end
           done
       done
   end);
  Bytes.blit t.persistent 0 t.volatile 0 t.size;
  Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000';
  Bytes.fill t.pending 0 (Bytes.length t.pending) '\000';
  t.dirty_lo <- max_int;
  t.dirty_hi <- -1;
  t.pend_lo <- max_int;
  t.pend_hi <- -1;
  t.n_pend_runs <- 0;
  t.n_staged <- 0

(* No bit of [bits] set on a line in [first..last] ∩ [lo..hi]. *)
let none_set bits lo hi first last =
  let a = if first > lo then first else lo in
  let b = if last < hi then last else hi in
  let rec go line = line > b || ((not (bit_is_set bits line)) && go (line + 1)) in
  go a

let is_persisted t off len =
  check_range t off len "is_persisted";
  len = 0
  ||
  let first = off / line_size and last = (off + len - 1) / line_size in
  none_set t.dirty t.dirty_lo t.dirty_hi first last
  && none_set t.pending t.pend_lo t.pend_hi first last

let popcount =
  let table = Bytes.make 256 '\000' in
  for i = 0 to 255 do
    let rec count v = if v = 0 then 0 else (v land 1) + count (v lsr 1) in
    Bytes.set table i (Char.chr (count i))
  done;
  table

let dirty_lines t =
  if t.dirty_hi < t.dirty_lo then 0
  else begin
    (* Edge bytes may cover lines outside the watermark, but the invariant
       says those bits are clear, so whole-byte popcounts are exact. *)
    let n = ref 0 in
    for byte = t.dirty_lo lsr 3 to t.dirty_hi lsr 3 do
      n :=
        !n + Char.code (Bytes.unsafe_get popcount (Char.code (Bytes.unsafe_get t.dirty byte)))
    done;
    !n
  end

(* Cost-free content digest for determinism oracles: reads both images
   directly — no simulated time charged, no counters touched — so
   fingerprinting an execution cannot perturb it. *)
let digest t =
  Digest.to_hex (Digest.string (Digest.bytes t.volatile ^ Digest.bytes t.persistent))

(* Cost-free observability reads, same contract as [digest]: gauges and
   stats walks must be able to inspect the volatile image without charging
   simulated loads, otherwise turning observability on would drift the
   bit-identity oracles. Never use these on a data path. *)
let peek_int t off =
  check_range t off 8 "peek";
  get_int_le t.volatile off

let peek_int64 t off =
  check_range t off 8 "peek";
  Bytes.get_int64_le t.volatile off

let counters t = t.counters

let add_counters acc c =
  acc.stores <- acc.stores + c.stores;
  acc.bytes_stored <- acc.bytes_stored + c.bytes_stored;
  acc.loads <- acc.loads + c.loads;
  acc.bytes_loaded <- acc.bytes_loaded + c.bytes_loaded;
  acc.lines_flushed <- acc.lines_flushed + c.lines_flushed;
  acc.fences <- acc.fences + c.fences;
  acc.bytes_copied <- acc.bytes_copied + c.bytes_copied;
  acc.copies <- acc.copies + c.copies;
  acc.allocs <- acc.allocs + c.allocs;
  acc.frees <- acc.frees + c.frees;
  acc.index_ops <- acc.index_ops + c.index_ops;
  acc.log_entries <- acc.log_entries + c.log_entries;
  acc.clflush_lines <- acc.clflush_lines + c.clflush_lines;
  acc.tx_begins <- acc.tx_begins + c.tx_begins;
  acc.crashes <- acc.crashes + c.crashes

let reset_counters t =
  let c = t.counters in
  c.stores <- 0;
  c.bytes_stored <- 0;
  c.loads <- 0;
  c.bytes_loaded <- 0;
  c.lines_flushed <- 0;
  c.fences <- 0;
  c.bytes_copied <- 0;
  c.copies <- 0;
  c.allocs <- 0;
  c.frees <- 0;
  c.index_ops <- 0;
  c.log_entries <- 0;
  c.clflush_lines <- 0;
  c.tx_begins <- 0;
  c.crashes <- 0
