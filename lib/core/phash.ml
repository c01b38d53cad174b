module Region = Kamino_nvm.Region

(* Persistent open-addressing hash table of a fixed capacity.

   Layout: the header keeps the magic at word 0 and the capacity at word
   1 (the state word). The buckets follow from byte 64, 16 bytes each: a
   key word, then a value word.

   Insert: a new entry is published value-then-key. The value word is
   persisted; the key word, the commit point, is only flushed, and the
   caller's next fence makes it durable. Until then a crash leaves the
   entry absent, never half-published: the key store follows the value's
   fence, so it cannot reach the medium before the value. The dynamic
   backup relies on the intent-log barrier that precedes a transaction's
   first in-place write. An existing entry is overwritten in place with
   one persist. The value word's fence also orders whatever the caller
   flushed before the insert: the backup's miss flushes its copy and its
   victim's tombstone without a fence of their own and relies on it.

   Take: a tombstone is only flushed, durable at the next fence. Until
   then its bucket must not take a new entry, or a crash could keep the
   old key word over the new value word (the two words of a bucket
   persist independently). So the table remembers the buckets it
   tombstoned since its last fence ([fresh]), and an insert's probe
   passes over them; every fence the table issues, and [fence], clears
   the set. [remove] fences at once. [take_at] tombstones a bucket the
   caller remembered from the insert: the same stores and flush as
   [take], with the key word checked instead of probed for. *)

type t = {
  region : Region.t;
  cap : int; (* power of two *)
  mask : int;
  mutable count : int;
  mutable free : int; (* insert bucket the last miss probe found; see [locate] *)
  mutable fresh : int array; (* buckets tombstoned since the last fence ... *)
  mutable nfresh : int; (* ... the first [nfresh] of them *)
}

exception Overload of { capacity : int; count : int }

let magic_value = 0x4B54484153485631L (* "KTHASHV1" *)

let magic_off = 0
let state_off = 8
let entries_start = 64
let structure = "Phash"

(* Key words: 0 marks an empty bucket, -1 a tombstone, a positive key a
   live entry. *)
let empty_key = 0
let tombstone_key = -1

let rec pow2_at_least n acc = if acc >= n then acc else pow2_at_least n (acc * 2)

let required_size ~capacity = entries_start + (pow2_at_least capacity 16 * 16)

let slot_off i = entries_start + (i * 16)

let make region cap =
  { region; cap; mask = cap - 1; count = 0; free = -1; fresh = Array.make 4 0; nfresh = 0 }

let format region ~capacity =
  let capacity = pow2_at_least capacity 16 in
  if Region.size region < required_size ~capacity then
    invalid_arg "Phash.format: region too small";
  Region.write_int64 region magic_off magic_value;
  Region.write_int region state_off capacity;
  (* Zero the bucket array (fresh regions are zeroed already, but reformats
     of reused regions are not). *)
  Region.fill region entries_start (capacity * 16) 0;
  Region.persist_all region;
  make region capacity

let capacity t = t.cap

let region t = t.region

let count t = t.count

let hash key =
  let z = Int64.of_int key in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.to_int (Int64.logand z 0x3FFFFFFFFFFFFFFFL)

let charge_index t = Region.charge_index t.region

(* The table's own fences. Each makes every tombstone written before it
   durable, so their buckets may take new entries again. *)
let fence t =
  Region.fence t.region;
  t.nfresh <- 0

let persist t off len =
  Region.persist t.region off len;
  t.nfresh <- 0

let is_fresh t o =
  let rec mem i = i < t.nfresh && (t.fresh.(i) = o || mem (i + 1)) in
  mem 0

(* The raw probe: the bucket holding [key], or [-1]. A miss also leaves
   in [t.free] the bucket an insert of [key] would take: the first
   tombstone on the probe path that is not fresh (see [fence]), else the
   empty bucket that ended it. A probe that wraps around the whole table
   has proved [key] absent, so its first such tombstone serves too; only
   a table of live entries and fresh tombstones leaves [-1]. Words are
   read as plain ints: the load is charged the same as an [int64] read,
   and the key encoding (0 empty, -1 tombstone, positive live) survives
   the trip. *)
let locate t key =
  let rec probe i steps first_tomb =
    if steps > t.cap then begin
      t.free <- first_tomb;
      -1
    end
    else begin
      let o = slot_off i in
      let k = Region.read_int t.region o in
      if k = empty_key then begin
        t.free <- (if first_tomb >= 0 then first_tomb else o);
        -1
      end
      else if k = key then o
      else
        probe ((i + 1) land t.mask) (steps + 1)
          (if k = tombstone_key && first_tomb < 0 && not (is_fresh t o) then o
           else first_tomb)
    end
  in
  probe (hash key land t.mask) 0 (-1)

(* Flushed, not fenced: durable at the next fence, and until then the
   bucket is fresh. *)
let tombstone t o =
  Region.write_int t.region o tombstone_key;
  Region.flush t.region o 8;
  if t.nfresh = Array.length t.fresh then t.fresh <- Array.append t.fresh t.fresh;
  t.fresh.(t.nfresh) <- o;
  t.nfresh <- t.nfresh + 1

let insert t ~key ~value =
  if key <= 0 then invalid_arg "Phash.insert: keys must be positive";
  charge_index t;
  match locate t key with
  | -1 ->
      (* Every bucket holds a live entry or a fresh tombstone. *)
      if t.free < 0 then raise (Overload { capacity = t.cap; count = t.count });
      let o = t.free in
      (* The value with a persist, then the key, the commit point, with a
         flush that the caller's next fence makes durable. *)
      Region.write_int t.region (o + 8) value;
      persist t o 16;
      Region.write_int t.region o key;
      Region.flush t.region o 16;
      t.count <- t.count + 1;
      o
  | o ->
      (* Overwrite in place: the key word is untouched, so the entry is
         never half-visible. *)
      Region.write_int t.region (o + 8) value;
      persist t o 16;
      o

let find t ~key =
  charge_index t;
  match locate t key with -1 -> None | o -> Some (Region.read_int t.region (o + 8))

(* Read the value, then tombstone the bucket. *)
let take_bucket t o =
  let v = Region.read_int t.region (o + 8) in
  tombstone t o;
  t.count <- t.count - 1;
  v

let take t ~key =
  charge_index t;
  match locate t key with -1 -> -1 | o -> take_bucket t o

let in_table t o = o >= entries_start && o < slot_off t.cap && (o - entries_start) land 15 = 0

let take_at t ~key ~bucket =
  if in_table t bucket && Region.read_int t.region bucket = key then take_bucket t bucket
  else take t ~key

let remove t ~key =
  let found = take t ~key >= 0 in
  if found then fence t;
  found

let iter t f =
  for i = 0 to t.cap - 1 do
    let o = slot_off i in
    let k = Region.read_int t.region o in
    if k <> empty_key && k <> tombstone_key then
      f ~key:k ~value:(Region.read_int t.region (o + 8)) ~bucket:o
  done

let entries t =
  let acc = ref [] in
  for i = 0 to t.cap - 1 do
    let o = slot_off i in
    let k = Region.peek_int t.region o in
    if k <> empty_key && k <> tombstone_key then
      acc := (k, Region.peek_int t.region (o + 8), o) :: !acc
  done;
  List.sort compare !acc

let open_existing reg =
  if Region.read_int64 reg magic_off <> magic_value then
    Region.corrupt ~structure ~off:magic_off "bad magic";
  let cap = Region.read_int reg state_off in
  if cap < 16 || cap land (cap - 1) <> 0 then
    Region.corrupt ~structure ~off:state_off "capacity %d is not a power of two >= 16" cap;
  if cap > (Region.size reg - entries_start) / 16 then
    Region.corrupt ~structure ~off:state_off "capacity %d: the buckets overrun the region" cap;
  let t = make reg cap in
  for i = 0 to cap - 1 do
    let k = Region.read_int reg (slot_off i) in
    if k <> empty_key && k <> tombstone_key then t.count <- t.count + 1
  done;
  t
