module Region = Kamino_nvm.Region
module Cost_model = Kamino_nvm.Cost_model

type slot = int

type state = Free | Running | Committed | Aborted

type intent = { off : int; len : int }

type t = {
  region : Region.t;
  max_user_threads : int;
  max_tx_entries : int;
  n_slots : int;
  slots_start : int;
  slot_size : int;
  free : slot Queue.t;  (* volatile free list, rebuilt at open *)
  (* Unflushed byte span of the slot being built, if any: the slot index
     ([-1] = none) with the lowest and highest dirty offsets to flush at
     the next barrier. Flat mutable ints rather than an option-of-tuple:
     this is updated on every appended intent and the hot path must not
     allocate. *)
  mutable uf_slot : int;
  mutable uf_lo : int;
  mutable uf_hi : int;
  (* Most recently appended entry of the record being built: slot index
     ([-1] = none), entry index and range. Valid only while the entry is
     still unflushed — the condition under which an in-place rewrite is
     crash-safe (see [add_intent_merged]). *)
  mutable la_slot : int;
  mutable la_idx : int;
  mutable la_off : int;
  mutable la_len : int;
  (* Slot ([-1] = none) whose header and entries were written back by
     [flush] and still wait for a fence: the next [barrier] owes one. *)
  mutable owed_slot : int;
  (* The logged ranges of the record being built, in log order: slot
     ([-1] = none), entry count, and each entry's range. A volatile
     mirror of what the entries say, so the one-fence commit hashes the
     write set without reading the log back. *)
  mutable cur_slot : int;
  mutable cur_n : int;
  cur_off : int array;
  cur_len : int array;
}

let total_bytes intents = List.fold_left (fun acc { len; _ } -> acc + len) 0 intents

let magic_value = 0x4B54584C4F475631L (* "KTXLOGV1" *)

(* Header words. *)
let magic_off = 0
let checksum_off = 8
let threads_off = 16
let entries_off = 24
let slots_off = 32
let header_size = 64
let structure = "Intent_log"

let scratchpad_size = 64
let slot_header_size = 64
let entry_size = 24

(* Slot header words, relative to slot start. *)
let sh_tx_id = 0
let sh_state = 8
let sh_count = 16

let state_to_int = function Free -> 0 | Running -> 1 | Committed -> 2 | Aborted -> 3

(* A slot's state word packs the state in its low two bits and, for a
   [Committed] word written by [seal], a nonzero 60-bit checksum of the
   write set above them. A two-fence [Committed] word carries no sum;
   recovery trusts it as is. Any other state carries none either. *)
let state_bits = 2
let sum_mask = (1 lsl 60) - 1

(* The checksum of a record's write set: [Region.hash_range] over each
   logged range of [main], in log order, truncated to 60 bits and never
   0 (0 marks the two-fence word). *)
let sum_seed = 0x4B54584C53554D
let sum_of h = match h land sum_mask with 0 -> 1 | s -> s

(* Per-entry checksum: an entry is only trusted by recovery when this tag,
   derived from the entry contents and the owning transaction id, matches.
   A crash persists an arbitrary subset of the dirty 8-byte words of an
   unflushed entry; a stale or torn entry fails the check and is ignored,
   which is safe because the barrier ordering guarantees no data write
   covered by it ever reached NVM. *)
let check_of ~tx_id ~off ~len =
  (* The salt keeps an all-zero (never written) entry from validating:
     mix(0) would otherwise be 0, matching a zeroed checksum word. *)
  let z = Int64.add 0x5A17EDC0DE5EEDL (Int64.of_int (((tx_id * 1000003) lxor (off * 31)) + (len * 17))) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  Int64.logxor z (Int64.shift_right_logical z 27)

let slot_size_of ~max_tx_entries = slot_header_size + (max_tx_entries * entry_size)

let required_size ~max_user_threads ~max_tx_entries ~n_slots =
  header_size + (max_user_threads * scratchpad_size)
  + (n_slots * slot_size_of ~max_tx_entries)

let checksum_of ~max_user_threads ~max_tx_entries ~n_slots =
  Int64.add magic_value
    (Int64.of_int ((max_user_threads * 31) + (max_tx_entries * 17) + (n_slots * 7)))

let slot_off t slot = t.slots_start + (slot * t.slot_size)

(* Slot indices only come from the free queue and loops bounded by
   [n_slots], and [format]/[open_existing] verified the region covers every
   slot, so the header words are in bounds by construction — the unchecked
   accessors are safe and keep these hot helpers allocation- and
   branch-free. *)

let state_of_word ~off slot w =
  let sum = w asr state_bits in
  match w land 3 with
  | _ when w < 0 -> Region.corrupt ~structure ~off "slot %d state word %#x is negative" slot w
  | 2 -> Committed
  | _ when sum <> 0 ->
      Region.corrupt ~structure ~off "slot %d state word %#x: a checksum on state %d" slot w
        (w land 3)
  | 0 -> Free
  | 1 -> Running
  | _ -> Aborted

let slot_state t slot =
  let off = slot_off t slot + sh_state in
  state_of_word ~off slot (Region.unsafe_read_int t.region off)

let slot_tx_id t slot = Region.unsafe_read_int t.region (slot_off t slot + sh_tx_id)

let slot_count t slot = Region.unsafe_read_int t.region (slot_off t slot + sh_count)

let rebuild_free t =
  Queue.clear t.free;
  for s = 0 to t.n_slots - 1 do
    if slot_state t s = Free then Queue.add s t.free
  done

let format region ~max_user_threads ~max_tx_entries ~n_slots =
  let need = required_size ~max_user_threads ~max_tx_entries ~n_slots in
  if Region.size region < need then
    invalid_arg
      (Printf.sprintf "Intent_log.format: region of %d bytes < required %d"
         (Region.size region) need);
  Region.write_int64 region magic_off magic_value;
  Region.write_int64 region checksum_off (checksum_of ~max_user_threads ~max_tx_entries ~n_slots);
  Region.write_int region threads_off max_user_threads;
  Region.write_int region entries_off max_tx_entries;
  Region.write_int region slots_off n_slots;
  let slots_start = header_size + (max_user_threads * scratchpad_size) in
  let slot_size = slot_size_of ~max_tx_entries in
  for s = 0 to n_slots - 1 do
    Region.write_int region (slots_start + (s * slot_size) + sh_state) (state_to_int Free)
  done;
  Region.persist_all region;
  let t =
    {
      region;
      max_user_threads;
      max_tx_entries;
      n_slots;
      slots_start;
      slot_size;
      free = Queue.create ();
      uf_slot = -1;
      uf_lo = 0;
      uf_hi = 0;
      la_slot = -1;
      la_idx = 0;
      la_off = 0;
      la_len = 0;
      owed_slot = -1;
      cur_slot = -1;
      cur_n = 0;
      cur_off = Array.make max_tx_entries 0;
      cur_len = Array.make max_tx_entries 0;
    }
  in
  rebuild_free t;
  t

let open_existing region =
  if Region.read_int64 region magic_off <> magic_value then
    Region.corrupt ~structure ~off:magic_off "bad magic";
  let max_user_threads = Region.read_int region threads_off in
  let max_tx_entries = Region.read_int region entries_off in
  let n_slots = Region.read_int region slots_off in
  if
    Region.read_int64 region checksum_off
    <> checksum_of ~max_user_threads ~max_tx_entries ~n_slots
  then Region.corrupt ~structure ~off:checksum_off "header checksum mismatch";
  (* The unchecked slot accessors rely on the region covering every slot. *)
  if
    max_user_threads < 0 || max_tx_entries < 0 || n_slots < 0
    || required_size ~max_user_threads ~max_tx_entries ~n_slots > Region.size region
  then Region.corrupt ~structure ~off:slots_off "header slots overrun the region";
  let t =
    {
      region;
      max_user_threads;
      max_tx_entries;
      n_slots;
      slots_start = header_size + (max_user_threads * scratchpad_size);
      slot_size = slot_size_of ~max_tx_entries;
      free = Queue.create ();
      uf_slot = -1;
      uf_lo = 0;
      uf_hi = 0;
      la_slot = -1;
      la_idx = 0;
      la_off = 0;
      la_len = 0;
      owed_slot = -1;
      cur_slot = -1;
      cur_n = 0;
      cur_off = Array.make max_tx_entries 0;
      cur_len = Array.make max_tx_entries 0;
    }
  in
  rebuild_free t;
  t

let note_unflushed t slot lo hi =
  if t.uf_slot = slot then begin
    if lo < t.uf_lo then t.uf_lo <- lo;
    if hi > t.uf_hi then t.uf_hi <- hi
  end
  else if t.uf_slot >= 0 then
    (* Only one transaction builds a record at a time (data-serial
       execution); a stale span from another slot indicates a missed
       barrier. *)
    failwith "Intent_log: unflushed entries from a different slot"
  else begin
    t.uf_slot <- slot;
    t.uf_lo <- lo;
    t.uf_hi <- hi
  end

let begin_record t ~tx_id =
  match Queue.take_opt t.free with
  | None -> None
  | Some slot ->
      let off = slot_off t slot in
      Region.write_int t.region (off + sh_tx_id) tx_id;
      Region.write_int t.region (off + sh_state) (state_to_int Running);
      Region.write_int t.region (off + sh_count) 0;
      note_unflushed t slot off (off + slot_header_size);
      t.la_slot <- -1;
      t.cur_slot <- slot;
      t.cur_n <- 0;
      Some slot

let add_intent t slot { off; len } =
  let base = slot_off t slot in
  let n = slot_count t slot in
  if n >= t.max_tx_entries then
    failwith
      (Printf.sprintf "Intent_log: transaction exceeds max_tx_entries=%d" t.max_tx_entries);
  let tx_id = slot_tx_id t slot in
  let eoff = base + slot_header_size + (n * entry_size) in
  Region.write_int t.region eoff off;
  Region.write_int t.region (eoff + 8) len;
  Region.write_int64 t.region (eoff + 16) (check_of ~tx_id ~off ~len);
  Region.write_int t.region (base + sh_count) (n + 1);
  note_unflushed t slot base (eoff + entry_size);
  t.la_slot <- slot;
  t.la_idx <- n;
  t.la_off <- off;
  t.la_len <- len;
  if t.cur_slot = slot then begin
    t.cur_off.(n) <- off;
    t.cur_len.(n) <- len;
    t.cur_n <- n + 1
  end

(* Append [i], or absorb it into the immediately preceding entry of [slot]
   when the two overlap or adjoin exactly and that entry has never been
   covered by a barrier. The in-place rewrite is crash-safe precisely in
   that window: no barrier since the append means no transactional data
   write has been issued under the entry's protection (writes barrier the
   log first), so if a crash tears the rewritten entry and recovery
   discards it, the bytes it covered hold only committed data and need no
   roll-back. Merging never widens coverage beyond the union of the two
   exact ranges — entries of distinct records must stay disjoint, or a
   committed record's roll-forward could resurrect a torn write of the
   crashed transaction (see DESIGN.md §7).

   Returns the resulting durable entry and whether a merge (or containment)
   absorbed the new range without appending. *)
let add_intent_merged t slot ({ off; len } as i) =
  if t.uf_slot = slot && t.la_slot = slot then begin
    let poff = t.la_off and plen = t.la_len in
    if poff <= off && off + len <= poff + plen then
      ({ off = poff; len = plen }, true) (* contained: nothing to write *)
    else if off <= poff + plen && poff <= off + len then begin
      let noff = min off poff in
      let nlen = max (off + len) (poff + plen) - noff in
      let base = slot_off t slot in
      let tx_id = slot_tx_id t slot in
      let idx = t.la_idx in
      let eoff = base + slot_header_size + (idx * entry_size) in
      Region.write_int t.region eoff noff;
      Region.write_int t.region (eoff + 8) nlen;
      Region.write_int64 t.region (eoff + 16) (check_of ~tx_id ~off:noff ~len:nlen);
      note_unflushed t slot eoff (eoff + entry_size);
      t.la_off <- noff;
      t.la_len <- nlen;
      if t.cur_slot = slot then begin
        t.cur_off.(idx) <- noff;
        t.cur_len.(idx) <- nlen
      end;
      ({ off = noff; len = nlen }, true)
    end
    else begin
      add_intent t slot i;
      (i, false)
    end
  end
  else begin
    add_intent t slot i;
    (i, false)
  end

let flush t slot =
  if t.uf_slot = slot then begin
    Region.flush t.region t.uf_lo (t.uf_hi - t.uf_lo);
    t.uf_slot <- -1;
    t.la_slot <- -1;
    t.owed_slot <- slot
  end

let barrier t slot =
  if t.uf_slot = slot then begin
    Region.persist t.region t.uf_lo (t.uf_hi - t.uf_lo);
    t.uf_slot <- -1;
    t.la_slot <- -1;
    t.owed_slot <- -1
  end
  else if t.owed_slot = slot then begin
    Region.fence t.region;
    t.owed_slot <- -1
  end

let mark t slot state =
  barrier t slot;
  let off = slot_off t slot in
  Region.write_int t.region (off + sh_state) (state_to_int state);
  Region.persist t.region (off + sh_state) 8

let seal t slot ~main =
  let bytes = ref 0 in
  for i = 0 to t.cur_n - 1 do
    bytes := !bytes + t.cur_len.(i)
  done;
  t.cur_slot = slot && t.uf_slot <> slot && t.owed_slot <> slot
  && Cost_model.loads_beat_fence (Region.cost_model main) ~loads:t.cur_n ~bytes:!bytes
  &&
  let h = ref sum_seed in
  for i = 0 to t.cur_n - 1 do
    h := Region.hash_range main t.cur_off.(i) t.cur_len.(i) !h
  done;
  let off = slot_off t slot + sh_state in
  Region.write_int t.region off ((sum_of !h lsl state_bits) lor state_to_int Committed);
  Region.flush t.region off 8;
  true

let commit_holds t slot ~main intents =
  let sum = Region.unsafe_read_int t.region (slot_off t slot + sh_state) asr state_bits in
  sum = 0
  || sum
     = sum_of
         (List.fold_left
            (fun h { off; len } -> Region.hash_range main off len h)
            sum_seed intents)

let release t slot =
  (* Zero the whole header, not just the state word: a later [begin_record]
     in this slot may tear at a crash (any subset of its header words can
     persist), and recovery must never be able to combine a new [Running]
     state with a stale transaction id and entry count — that would
     resurrect an already-consumed record and roll back committed data.
     Starting from an all-zero header, every torn combination is benign:
     stale entries cannot validate against tx id 0, and a zero count means
     no intents. The header fits in one cache line, so this explicit flush
     is itself atomic. *)
  let never_persisted =
    if t.uf_slot = slot then begin
      (* A read-only transaction releases its slot without ever
         barriering it: the durable header is still the zeroed Free state
         from the previous release, so resetting the volatile image is
         enough (any torn persist of these zeros at a crash lands on an
         already-zero durable base). *)
      t.uf_slot <- -1;
      true
    end
    else false
  in
  if t.la_slot = slot then t.la_slot <- -1;
  if t.owed_slot = slot then t.owed_slot <- -1;
  if t.cur_slot = slot then t.cur_slot <- -1;
  let off = slot_off t slot in
  Region.write_int t.region (off + sh_tx_id) 0;
  Region.write_int t.region (off + sh_state) (state_to_int Free);
  Region.write_int t.region (off + sh_count) 0;
  if not never_persisted then Region.persist t.region off 24;
  Queue.add slot t.free

let region t = t.region

let intents t slot =
  let base = slot_off t slot in
  let n = min (slot_count t slot) t.max_tx_entries in
  let tx_id = slot_tx_id t slot in
  (* Walk forward, stopping at the first entry whose tag does not match:
     later entries were appended after it and cannot be trusted either. *)
  let rec collect i acc =
    if i >= n then List.rev acc
    else begin
      let eoff = base + slot_header_size + (i * entry_size) in
      let off = Region.read_int t.region eoff in
      let len = Region.read_int t.region (eoff + 8) in
      let check = Region.read_int64 t.region (eoff + 16) in
      if check <> check_of ~tx_id ~off ~len then List.rev acc
      else collect (i + 1) ({ off; len } :: acc)
    end
  in
  collect 0 []

let free_slots t = Queue.length t.free

let slot_count t = t.n_slots

let occupied_slots t =
  let slots = ref [] in
  for s = t.n_slots - 1 downto 0 do
    if slot_state t s <> Free then slots := s :: !slots
  done;
  List.sort (fun a b -> compare (slot_tx_id t a) (slot_tx_id t b)) !slots

let iter_records t f =
  List.iter (fun s -> f s (slot_tx_id t s) (slot_state t s) (intents t s)) (occupied_slots t)

let max_tx_id t =
  List.fold_left (fun acc s -> max acc (slot_tx_id t s)) 0 (occupied_slots t)
