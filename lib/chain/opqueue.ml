module Region = Kamino_nvm.Region

module Slot = struct
  type t = { buf : bytes; mutable seq : int; mutable len : int }

  let seq s = s.seq
  let length s = s.len
  let bytes s = s.buf
  let to_string s = Bytes.sub_string s.buf 0 s.len
end

type t = {
  region : Region.t;
  slot_bytes : int;
  n_slots : int;
  slots_start : int;
  (* [head] mirrors the persistent head word; [tail] is volatile only, and
     [open_existing] recomputes it from the entries. *)
  mutable head : int;
  mutable tail : int;
  mutable peeked : bool;  (* the last [peek] validated the entry at [head] *)
  (* Scratch reused by every load and store: [slot.buf] receives a
     slot's payload, [check] a computed checksum and [stored] the one read
     back. [some_slot] is [Some slot], built once so that [peek] returns it
     without allocating. *)
  slot : Slot.t;
  some_slot : Slot.t option;
  check : bytes;
  stored : bytes;
}

let magic_value = 0x4B544F505155455FL (* "KTOPQUE_" *)

let magic_off = 0
let config_off = 8
let head_off = 16
(* Word 24 held a persistent tail in earlier builds; it is no longer
   written or read. *)
let slot_bytes_off = 32
let n_slots_off = 40
let header_size = 64
let structure = "Opqueue"

(* Slot: seq, payload length, checksum, payload. *)
let s_seq = 0
let s_len = 8
let s_check = 16
let slot_header = 24

let required_size ~slot_bytes ~n_slots = header_size + (n_slots * (slot_header + slot_bytes))

let slot_stride t = slot_header + t.slot_bytes

let slot_off t seq = t.slots_start + (seq mod t.n_slots * slot_stride t)

(* FNV-style fold of [src.[0 .. len)] under [seq], stored little-endian at
   [dst.[0 .. 8)]. A plain loop keeps the int64 accumulator unboxed, and
   storing the result (rather than returning it) keeps the caller's
   comparison unboxed too. *)
let check_into dst ~seq src len =
  let acc = ref (Int64.of_int (seq lxor 0x5EED)) in
  for i = 0 to len - 1 do
    acc :=
      Int64.add
        (Int64.mul !acc 1099511628211L)
        (Int64.of_int (Char.code (Bytes.unsafe_get src i) + 1))
  done;
  Bytes.set_int64_le dst 0 (Int64.add !acc 0x5A17EDL)

let checksum ~seq payload =
  let b = Bytes.create 8 in
  check_into b ~seq (Bytes.unsafe_of_string payload) (String.length payload);
  Bytes.get_int64_le b 0

let config_of ~slot_bytes ~n_slots = Int64.of_int ((slot_bytes * 31) + (n_slots * 7) + 5)

let make region ~slot_bytes ~n_slots ~head ~tail =
  let slot = { Slot.buf = Bytes.create slot_bytes; seq = 0; len = 0 } in
  {
    region;
    slot_bytes;
    n_slots;
    slots_start = header_size;
    head;
    tail;
    peeked = false;
    slot;
    some_slot = Some slot;
    check = Bytes.create 8;
    stored = Bytes.create 8;
  }

let format region ~slot_bytes ~n_slots =
  if Region.size region < required_size ~slot_bytes ~n_slots then
    invalid_arg "Opqueue.format: region too small";
  Region.write_int64 region magic_off magic_value;
  Region.write_int64 region config_off (config_of ~slot_bytes ~n_slots);
  Region.write_int region head_off 0;
  (* Config words are recovered from the checksum at open. *)
  Region.write_int region slot_bytes_off slot_bytes;
  Region.write_int region n_slots_off n_slots;
  Region.persist region 0 header_size;
  make region ~slot_bytes ~n_slots ~head:0 ~tail:0

let length t = t.tail - t.head

(* Load slot [seq] into [t.slot] and validate it. The loads (seq, length,
   payload, checksum, with those byte counts and in that order) are the
   whole simulated cost of reading an entry. *)
let load t seq =
  let off = slot_off t seq in
  Region.read_int t.region (off + s_seq) = seq
  &&
  let len = Region.read_int t.region (off + s_len) in
  len >= 0
  && len <= t.slot_bytes
  &&
  let s = t.slot in
  Region.read_into t.region (off + slot_header) s.buf 0 len;
  Region.read_into t.region (off + s_check) t.stored 0 8;
  check_into t.check ~seq s.buf len;
  (Bytes.get_int64_le t.check 0 : int64) = Bytes.get_int64_le t.stored 0
  && begin
       s.seq <- seq;
       s.len <- len;
       true
     end

let open_existing region =
  if Region.read_int64 region magic_off <> magic_value then
    Region.corrupt ~structure ~off:magic_off "bad magic";
  let slot_bytes = Region.read_int region slot_bytes_off in
  let n_slots = Region.read_int region n_slots_off in
  if
    Region.read_int64 region config_off <> config_of ~slot_bytes ~n_slots
    || slot_bytes < 0 || n_slots <= 0
    || Region.size region < required_size ~slot_bytes ~n_slots
  then Region.corrupt ~structure ~off:config_off "corrupt configuration";
  let head = Region.read_int region head_off in
  if head < 0 then Region.corrupt ~structure ~off:head_off "head %d is negative" head;
  let t = make region ~slot_bytes ~n_slots ~head ~tail:head in
  (* The entries the head leads to: every one that validates in sequence,
     at most a full queue. An entry validates by its seq word and its
     checksum, so a torn enqueue, or a previous lap's entry in the next
     slot, ends the queue. *)
  let rec scan seq = if seq - head < n_slots && load t seq then scan (seq + 1) else seq in
  t.tail <- scan head;
  (* The head must agree with the entries: the slot before it still holds
     the entry the head moved past, unless a later lap's enqueue has
     reused that slot, which only the enqueue of a queue's last free slot
     does (then the queue holds at least [n_slots - 1] entries). *)
  if head > 0 && length t < n_slots - 1 && not (load t (head - 1)) then
    Region.corrupt ~structure ~off:head_off "head %d: entry %d before it does not validate" head
      (head - 1);
  t

let is_empty t = length t = 0

let is_full t = length t >= t.n_slots

let head_seq t = t.head

let tail_seq t = t.tail

let enqueue t payload =
  if is_full t then failwith "Opqueue.enqueue: queue full";
  let len = String.length payload in
  if len > t.slot_bytes then failwith "Opqueue.enqueue: payload too large";
  let seq = t.tail in
  let off = slot_off t seq in
  Region.write_int t.region (off + s_seq) seq;
  Region.write_int t.region (off + s_len) len;
  check_into t.check ~seq (Bytes.unsafe_of_string payload) len;
  Region.write_bytes t.region (off + s_check) t.check;
  Region.write_string t.region (off + slot_header) payload;
  (* The entry publishes itself: it validates once its words are durable,
     at the caller's next fence. *)
  Region.flush t.region off (slot_header + len);
  t.tail <- seq + 1;
  seq

let load_published t seq what =
  if not (load t seq) then
    Region.corrupt ~structure ~off:(slot_off t seq) "%s: corrupt published entry %d" what seq

let peek t =
  t.peeked <- false;
  if is_empty t then None
  else begin
    load_published t t.head "peek";
    t.peeked <- true;
    t.some_slot
  end

let advance_head t seq =
  t.head <- seq;
  t.peeked <- false;
  Region.write_int t.region head_off t.head;
  Region.persist t.region head_off 8

let drop_peeked t =
  if not t.peeked then invalid_arg "Opqueue.drop_peeked: no entry peeked";
  advance_head t (t.head + 1)

let drop_through t seq =
  if seq >= t.head then advance_head t (min (seq + 1) t.tail)

let digest t = Region.digest t.region

let iter t f =
  for seq = t.head to t.tail - 1 do
    load_published t seq "iter";
    f t.slot
  done
