module Region = Kamino_nvm.Region
module Cost_model = Kamino_nvm.Cost_model

(* Persistent open-addressing hash table with crash-safe incremental
   resize.

   Layout: the header keeps the magic at word 0 and a packed state word at
   word 1: [cap | doublings << 48 | armed << 62]. A table that has never
   resized stores exactly its capacity there — bit-for-bit what the
   fixed-capacity format wrote — so legacy images decode unchanged and
   opening one charges exactly the same loads as before. The migration
   cursor lives at word 2 and is only ever read when the armed bit is set,
   which keeps the never-resized open path free of extra charged ops (the
   variant oracle pins them).

   Tables live in a geometric chain inside the region: generation [d] has
   capacity [c0 * 2^d] and starts at [64 + 16*c0*(2^d - 1)]. Both the
   active table's offset and the migration target's offset are derivable
   from (c0, d), so the state word alone names the whole on-NVM layout.

   Resize protocol (split-migration):
   - arm: zero + persist the next table's range, persist cursor := 0, then
     persist the state word with the armed bit set. The state-word store is
     the commit point; a crash before it leaves a plain table.
   - migrate: each insert call first copies a small batch of old-table
     buckets into the new table via insert-if-absent (idempotent, so
     replaying a batch after a crash is harmless), then persists the
     cursor, whose fence also makes the batch's key words durable. Live
     inserts go to the new table and tombstone any old copy, fencing the
     new key first; removes tombstone both tables, the old one first;
     finds probe new-then-old.
   - complete: one persisted store of the state word advances the
     generation and clears the armed bit atomically. Recovery (open) of an
     armed image just finishes the remaining batches and completes.

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
  mutable cap : int; (* active table capacity (power of two) *)
  mutable mask : int;
  mutable off : int; (* active table start *)
  mutable doublings : int; (* completed resizes *)
  mutable mig : int; (* migration cursor; -1 when not armed *)
  mutable ncap : int; (* migration target, valid when mig >= 0 *)
  mutable nmask : int;
  mutable noff : int;
  mutable count : int;
  mutable free : int; (* insert bucket the last miss probe found; see [locate] *)
  mutable fresh : int array; (* buckets tombstoned since the last fence ... *)
  mutable nfresh : int; (* ... the first [nfresh] of them *)
}

exception Overload of { capacity : int; count : int }

let magic_value = 0x4B54484153485631L (* "KTHASHV1" *)

let magic_off = 0
let state_off = 8
let mig_cursor_off = 16
let entries_start = 64
let structure = "Phash"

(* Key words: 0 marks an empty bucket, -1 a tombstone, a positive key a
   live entry. *)
let empty_key = 0
let tombstone_key = -1

let armed_bit = 1 lsl 62
let cap_mask = (1 lsl 48) - 1
let migrate_batch = 8

let encode_state ~cap ~d ~armed =
  cap lor (d lsl 48) lor (if armed then armed_bit else 0)

let rec pow2_at_least n acc = if acc >= n then acc else pow2_at_least n (acc * 2)

let chain_size ~capacity ~doublings =
  let c0 = pow2_at_least capacity 16 in
  entries_start + (c0 * 16 * ((1 lsl (doublings + 1)) - 1))

let required_size ~capacity = chain_size ~capacity ~doublings:0

let slot_off off i = off + (i * 16)

let format region ~capacity =
  let capacity = pow2_at_least capacity 16 in
  if Region.size region < required_size ~capacity then
    invalid_arg "Phash.format: region too small";
  Region.write_int64 region magic_off magic_value;
  Region.write_int region state_off (encode_state ~cap:capacity ~d:0 ~armed:false);
  (* Zero the bucket array (fresh regions are zeroed already, but reformats
     of reused regions are not). *)
  Region.fill region entries_start (capacity * 16) 0;
  Region.persist_all region;
  {
    region;
    cap = capacity;
    mask = capacity - 1;
    off = entries_start;
    doublings = 0;
    mig = -1;
    ncap = 0;
    nmask = 0;
    noff = 0;
    count = 0;
    free = -1;
    fresh = Array.make 4 0;
    nfresh = 0;
  }

let capacity t = t.cap

let region t = t.region

let count t = t.count

let migrations t = t.doublings

let resizing t = t.mig >= 0

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

(* Raw probes over one table of the chain. [locate] returns the bucket
   holding [key], or [-1]. A miss also leaves in [t.free] the bucket an
   insert of [key] would take: the first tombstone on the probe path that
   is not fresh (see [fence]), else the empty bucket that ended it. A
   probe that wraps around the whole table has proved [key] absent, so its
   first such tombstone serves too; only a table of live entries and
   fresh tombstones leaves [-1]. Words are read as plain ints: the load is
   charged the same as an [int64] read, and the key encoding (0 empty, -1
   tombstone, positive live) survives the trip. *)

let locate t off cap mask key =
  let rec probe i steps first_tomb =
    if steps > cap then begin
      t.free <- first_tomb;
      -1
    end
    else begin
      let o = slot_off off i in
      let k = Region.read_int t.region o in
      if k = empty_key then begin
        t.free <- (if first_tomb >= 0 then first_tomb else o);
        -1
      end
      else if k = key then o
      else
        probe ((i + 1) land mask) (steps + 1)
          (if k = tombstone_key && first_tomb < 0 && not (is_fresh t o) then o
           else first_tomb)
    end
  in
  probe (hash key land mask) 0 (-1)

let find_in t off cap mask key =
  match locate t off cap mask key with -1 -> -1 | o -> Region.read_int t.region (o + 8)

(* Flushed, not fenced: durable at the next fence, and until then the
   bucket is fresh. *)
let tombstone t o =
  Region.write_int t.region o tombstone_key;
  Region.flush t.region o 8;
  if t.nfresh = Array.length t.fresh then t.fresh <- Array.append t.fresh t.fresh;
  t.fresh.(t.nfresh) <- o;
  t.nfresh <- t.nfresh + 1

(* Read the value, then tombstone the bucket: a find and a remove in one
   probe. *)
let take_in t off cap mask key =
  match locate t off cap mask key with
  | -1 -> -1
  | o ->
      let v = Region.read_int t.region (o + 8) in
      tombstone t o;
      v

(* Publish a new entry at a free bucket: the value with a persist, then
   the key, the commit point, with a flush that the caller's next fence
   makes durable. *)
let publish t slot key value =
  Region.write_int t.region (slot + 8) value;
  persist t slot 16;
  Region.write_int t.region slot key;
  Region.flush t.region slot 16

(* Overwrite in place: publish the new value with a persist; the key word
   is untouched so the entry is never half-visible. *)
let overwrite t o value =
  Region.write_int t.region (o + 8) value;
  persist t o 16

(* A miss that found no free bucket: every bucket holds a live entry or a
   fresh tombstone. *)
let free_or_overload t cap =
  if t.free < 0 then raise (Overload { capacity = cap; count = t.count });
  t.free

(* Insert-if-absent into the migration target: the idempotent step that
   makes batch replay after a crash harmless. A key already present keeps
   its (fresher) value. *)
let migrate_entry t key value =
  if locate t t.noff t.ncap t.nmask key < 0 then
    publish t (free_or_overload t t.ncap) key value

let complete t =
  Region.write_int t.region state_off
    (encode_state ~cap:t.ncap ~d:(t.doublings + 1) ~armed:false);
  persist t state_off 8;
  t.cap <- t.ncap;
  t.mask <- t.nmask;
  t.off <- t.noff;
  t.doublings <- t.doublings + 1;
  t.ncap <- 0;
  t.nmask <- 0;
  t.noff <- 0;
  t.mig <- -1

let migrate_step t =
  let stop = min (t.mig + migrate_batch) t.cap in
  for i = t.mig to stop - 1 do
    let o = slot_off t.off i in
    let k = Region.read_int t.region o in
    if k <> empty_key && k <> tombstone_key then
      migrate_entry t k (Region.read_int t.region (o + 8))
  done;
  Region.write_int t.region mig_cursor_off stop;
  persist t mig_cursor_off 8;
  t.mig <- stop;
  if stop >= t.cap then complete t

(* An insert arms a 2x resize when it would push the load factor past 7/8
   and the region has room for the next table in the chain. Without room
   the table degrades to the explicit [Overload] once genuinely full. *)
let arms_resize t =
  t.mig < 0
  && t.count + 1 > t.cap - (t.cap lsr 3)
  && t.off + (t.cap * 16) + (t.cap * 32) <= Region.size t.region

let arm t =
  let noff = t.off + (t.cap * 16) in
  let ncap = t.cap * 2 in
  Region.fill t.region noff (ncap * 16) 0;
  persist t noff (ncap * 16);
  Region.write_int t.region mig_cursor_off 0;
  persist t mig_cursor_off 8;
  Region.write_int t.region state_off (encode_state ~cap:t.cap ~d:t.doublings ~armed:true);
  persist t state_off 8;
  t.ncap <- ncap;
  t.nmask <- ncap - 1;
  t.noff <- noff;
  t.mig <- 0

let insert t ~key ~value =
  if key <= 0 then invalid_arg "Phash.insert: keys must be positive";
  charge_index t;
  if arms_resize t then arm t;
  (* A migration step can complete the resize. *)
  if t.mig >= 0 then migrate_step t;
  if t.mig >= 0 then begin
    (* Publish into the target first, then tombstone any live old copy so
       a replayed migration batch cannot resurrect the stale value. The
       new key is fenced before the old copy's tombstone, so a crash
       between the two leaves both copies live; finds prefer the target
       and insert-if-absent skips the stale one. *)
    (match locate t t.noff t.ncap t.nmask key with
    | -1 -> (
        publish t (free_or_overload t t.ncap) key value;
        match locate t t.off t.cap t.mask key with
        | -1 -> t.count <- t.count + 1
        | o ->
            fence t;
            tombstone t o)
    | o -> overwrite t o value);
    -1
  end
  else
    match locate t t.off t.cap t.mask key with
    | -1 ->
        let o = free_or_overload t t.cap in
        publish t o key value;
        t.count <- t.count + 1;
        o
    | o ->
        overwrite t o value;
        o

let find t ~key =
  charge_index t;
  if t.mig >= 0 then begin
    match find_in t t.noff t.ncap t.nmask key with
    | -1 -> (
        match find_in t t.off t.cap t.mask key with -1 -> None | v -> Some v)
    | v -> Some v
  end
  else match find_in t t.off t.cap t.mask key with -1 -> None | v -> Some v

let take t ~key =
  charge_index t;
  let v =
    if t.mig >= 0 then begin
      (* Tombstone both copies, the old one first. The target's value is
         the fresher; when the two differ, the old tombstone is fenced
         before the target's, so a crash between them leaves the key
         visible with the fresher value, i.e. the take did not happen.
         Equal values need no order. *)
      let in_old = take_in t t.off t.cap t.mask key in
      match locate t t.noff t.ncap t.nmask key with
      | -1 -> in_old
      | o ->
          let in_new = Region.read_int t.region (o + 8) in
          if in_old >= 0 && in_old <> in_new then fence t;
          tombstone t o;
          in_new
    end
    else take_in t t.off t.cap t.mask key
  in
  if v >= 0 then t.count <- t.count - 1;
  v

(* A bucket of the active table, by its offset. *)
let in_active t o = o >= t.off && o < t.off + (t.cap * 16) && (o - t.off) land 15 = 0

let take_at t ~key ~bucket =
  if t.mig >= 0 || (not (in_active t bucket)) || Region.read_int t.region bucket <> key then
    take t ~key
  else begin
    let v = Region.read_int t.region (bucket + 8) in
    tombstone t bucket;
    t.count <- t.count - 1;
    v
  end

let remove t ~key =
  let found = take t ~key >= 0 in
  if found then fence t;
  found

let iter_table t off cap f =
  for i = 0 to cap - 1 do
    let o = slot_off off i in
    let k = Region.read_int t.region o in
    if k <> empty_key && k <> tombstone_key then
      f ~key:k ~value:(Region.read_int t.region (o + 8)) ~bucket:o
  done

let iter t f =
  if t.mig >= 0 then begin
    (* Live set = target ∪ (active \ target): the target copy wins for keys
       present in both (it is at least as fresh). *)
    iter_table t t.noff t.ncap (fun ~key ~value ~bucket:_ -> f ~key ~value ~bucket:(-1));
    iter_table t t.off t.cap (fun ~key ~value ~bucket ->
        if find_in t t.noff t.ncap t.nmask key = -1 then f ~key ~value ~bucket)
  end
  else iter_table t t.off t.cap f

let entries t =
  let live = Hashtbl.create 64 in
  let walk off cap bucket =
    for i = 0 to cap - 1 do
      let o = slot_off off i in
      let k = Region.peek_int t.region o in
      if k <> empty_key && k <> tombstone_key && not (Hashtbl.mem live k) then
        Hashtbl.replace live k (Region.peek_int t.region (o + 8), bucket o)
    done
  in
  (* The target first, as in [iter]. *)
  if t.mig >= 0 then walk t.noff t.ncap (fun _ -> -1);
  walk t.off t.cap Fun.id;
  List.sort compare (Hashtbl.fold (fun k (v, b) acc -> (k, v, b) :: acc) live [])

let rebuild_count t =
  let n = ref 0 in
  for i = 0 to t.cap - 1 do
    let k = Region.read_int t.region (slot_off t.off i) in
    if k <> empty_key && k <> tombstone_key then incr n
  done;
  t.count <- !n

let open_existing reg =
  if Region.read_int64 reg magic_off <> magic_value then
    Region.corrupt ~structure ~off:magic_off "bad magic";
  let state = Region.read_int reg state_off in
  let armed = state land armed_bit <> 0 in
  let d = (state lsr 48) land 0x3FFF in
  let cap = state land cap_mask in
  (* The first table has a power-of-two capacity of at least 16, and each
     doubling doubles it, so [cap] is one too, at least [16 lsl d]. *)
  if cap land (cap - 1) <> 0 || d > 44 || cap asr d < 16 then
    Region.corrupt ~structure ~off:state_off "state %#x: capacity %d, %d doublings" state cap d;
  let c0 = cap asr d in
  let need = chain_size ~capacity:c0 ~doublings:(if armed then d + 1 else d) in
  if need > Region.size reg then
    Region.corrupt ~structure ~off:state_off "state %#x: tables need %d bytes" state need;
  let off = entries_start + ((cap - c0) * 16) in
  let t =
    {
      region = reg;
      cap;
      mask = cap - 1;
      off;
      doublings = d;
      mig = -1;
      ncap = 0;
      nmask = 0;
      noff = 0;
      count = 0;
      free = -1;
      fresh = Array.make 4 0;
      nfresh = 0;
    }
  in
  if armed then begin
    (* Finish the interrupted migration eagerly: every batch is
       insert-if-absent, so replaying the batch that was in flight at the
       crash is harmless. The cursor word is only read on this path. *)
    t.ncap <- cap * 2;
    t.nmask <- t.ncap - 1;
    t.noff <- off + (cap * 16);
    t.mig <- Region.read_int reg mig_cursor_off;
    if t.mig < 0 || t.mig > cap then
      Region.corrupt ~structure ~off:mig_cursor_off "migration cursor %d outside [0, %d]" t.mig cap;
    while t.mig >= 0 do
      migrate_step t
    done
  end;
  rebuild_count t;
  t
