module Region = Kamino_nvm.Region
module Cost_model = Kamino_nvm.Cost_model
module Max_heap = Kamino_sim.Max_heap

type policy = Lru_policy | Fifo_policy

(* One free list of the slot allocator: the offsets of freed slots of one
   rounded length, and the spare: the slot of the last victim of that
   length, parked until a fence has made its tombstone durable ([-1] =
   none). *)
type free_list = { bytes : int; freed : Max_heap.t; mutable spare : int }

type dynamic = {
  slots : Region.t;
  mutable bump : int; (* first never-carved byte of [slots] *)
  mutable free : free_list array; (* one per slot length seen; a handful *)
  table : Phash.t;
  lru : Lru.t; (* the resident map: one node per table entry *)
  policy : policy;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type t = Full of Region.t | Dynamic of dynamic

(* The look-up table's value word packs the slot offset and the copy length
   so the slot allocator can be reconstructed from the table alone after a
   crash (the allocator metadata itself is volatile). Single-word values
   keep Phash's crash-atomic publish discipline intact. *)
let pack_slot ~slot ~len = slot lor (len lsl 32)

let slot_of v = v land 0xFFFFFFFF

let len_of v = v lsr 32

(* --- Slot allocator ---------------------------------------------------------

   A copy of [len] bytes lives in a slot of [slot_bytes len] bytes carved
   from a bump pointer over the slots region; there are no headers and no
   size classes. A freed slot waits on the free list of its length for a
   next copy of that rounded length, which takes the highest freed slot. All of this is volatile: the table
   names every resident slot, so [reopen] rebuilds it and nothing here is
   ever persisted. A carve or a free charges the cost model's allocator
   work; finding the region exhausted charges nothing. *)

let slot_bytes len = (len + 15) land lnot 15

let free_list d bytes =
  let rec find i =
    if i = Array.length d.free then begin
      let fl = { bytes; freed = Max_heap.create (); spare = -1 } in
      d.free <- Array.append d.free [| fl |];
      fl
    end
    else if d.free.(i).bytes = bytes then d.free.(i)
    else find (i + 1)
  in
  find 0

(* A slot of [fl]'s length, or [-1] when neither [fl] nor the space past
   the bump pointer has one. *)
let carve d fl =
  let bytes = fl.bytes in
  let slot =
    if not (Max_heap.is_empty fl.freed) then Max_heap.pop_max fl.freed
    else if d.bump + bytes <= Region.size d.slots then begin
      d.bump <- d.bump + bytes;
      d.bump - bytes
    end
    else -1
  in
  if slot >= 0 then Region.charge_alloc d.slots;
  slot

let release d packed =
  Region.charge_free d.slots;
  Max_heap.insert (free_list d (slot_bytes (len_of packed))).freed (slot_of packed)

let create_full region = Full region

let full_region = function Full region -> Some region | Dynamic _ -> None

let dynamic_sizing ~alpha ~heap_bytes =
  let slots_bytes = max (int_of_float (alpha *. float_of_int heap_bytes)) 65536 in
  (slots_bytes, max 1024 (slots_bytes / 128))

let create_dynamic ~slots ~table ~capacity ~policy =
  Dynamic
    {
      slots;
      bump = 0;
      free = [||];
      table = Phash.format table ~capacity;
      lru = Lru.create ~size_hint:capacity ();
      policy;
      hits = 0;
      misses = 0;
      evictions = 0;
    }

let reopen t =
  match t with
  | Full region -> Full region
  | Dynamic d ->
      (* The table is the persistent truth. One pass re-enters every
         entry into the resident map, with its slot word and bucket, so it
         stays evictable, and puts the bump pointer past the last mapped
         slot. Slots that were free or unpublished at the crash stay
         unused until the next reopen. *)
      let table = Phash.open_existing (Phash.region d.table) in
      let lru = Lru.create ~size_hint:(Phash.capacity table) () in
      let bump = ref 0 in
      Phash.iter table (fun ~key ~value ~bucket ->
          bump := max !bump (slot_of value + slot_bytes (len_of value));
          Lru.add lru key ~slot:value ~bucket);
      Dynamic
        { d with bump = !bump; free = [||]; table; lru; hits = 0; misses = 0; evictions = 0 }

let initialize_full t ~main =
  match t with
  | Full region ->
      Region.copy_between ~src:main ~src_off:0 ~dst:region ~dst_off:0
        ~len:(Region.size main);
      Region.persist_all region
  | Dynamic _ -> ()

(* Forget a resident copy: tombstone the bucket its node remembers,
   flushed but not fenced. Returns the packed slot, or [-1] if the table
   does not hold the key (should not happen). *)
let take d n =
  Lru.remove d.lru n;
  Phash.take_at d.table ~key:(Lru.key n) ~bucket:(Lru.bucket n)

(* Evict the recency queue's victim. Returns its packed slot, or [-1]
   when every resident copy is pinned. *)
let rec evict_unpinned d ~locked =
  match Lru.evict_candidate d.lru ~locked with
  | None -> -1
  | Some n ->
      let packed = take d n in
      (* A key the table does not know (should not happen): try the next. *)
      if packed < 0 then evict_unpinned d ~locked
      else begin
        d.evictions <- d.evictions + 1;
        packed
      end

(* Every resident copy is pinned, usually because committed write sets
   are still queued at the applier: [pressure] lets the engine drain it,
   unpinning their copies, before one more try. Raises [Failure what] if
   that fails too, after a fence makes the tombstones written so far
   durable, since their slots are already free. *)
let evict_relieved d ~locked ~pressure ~what =
  pressure ();
  match evict_unpinned d ~locked with
  | -1 ->
      Phash.fence d.table;
      failwith what
  | packed -> packed

let slots_exhausted =
  "Backup: dynamic backup exhausted — every resident copy is locked (working set \
   exceeds alpha * heap)"

(* A slot of [fl]'s length for a miss. On a full region the miss evicts,
   but the victim's tombstone is only flushed, so its slot must not take a
   copy before a fence: a crash could then keep the victim's mapping over
   the newcomer's bytes. The victim is parked as [fl]'s spare instead, and
   the miss copies into the spare an earlier miss parked, whose tombstone
   that miss's value fence made durable. Like the victim's slot it
   replaces, the spare is reused with no allocator charge. A victim of
   another length is freed; its free list hands it out no earlier than the
   next miss, after this one's fence. *)
let rec acquire_slot d fl ~locked ~pressure =
  let slot = carve d fl in
  if slot >= 0 then slot
  else
    match evict_unpinned d ~locked with
    | -1 when fl.spare >= 0 ->
        (* Nothing to evict, but the spare is free. *)
        let spare = fl.spare in
        fl.spare <- -1;
        spare
    | -1 ->
        recycle d fl ~locked ~pressure
          (evict_relieved d ~locked ~pressure ~what:slots_exhausted)
    | victim -> recycle d fl ~locked ~pressure victim

and recycle d fl ~locked ~pressure victim =
  if slot_bytes (len_of victim) <> fl.bytes then begin
    release d victim;
    acquire_slot d fl ~locked ~pressure
  end
  else if fl.spare >= 0 then begin
    let spare = fl.spare in
    fl.spare <- slot_of victim;
    spare
  end
  else begin
    (* The first eviction of this length on a full region: no spare yet.
       One more fence makes this victim's tombstone durable, so its slot
       serves now, and the next unpinned victim, if it has this length, is
       parked as the spare. *)
    Phash.fence d.table;
    (match evict_unpinned d ~locked with
    | -1 -> ()
    | next when slot_bytes (len_of next) = fl.bytes -> fl.spare <- slot_of next
    | next -> release d next);
    slot_of victim
  end

(* Durably forget a resident copy: its freed slot may take a copy at
   once, so the tombstone is fenced. *)
let drop_node d n =
  let packed = take d n in
  if packed >= 0 then begin
    Phash.fence d.table;
    release d packed
  end

(* Forget the resident copy for a range whose object identity has died —
   called after rolling back an aborted or incomplete transaction, whose
   fresh allocations may be re-carved with different extent boundaries. *)
let drop t ~off =
  match t with
  | Full _ -> ()
  | Dynamic d -> (
      match Lru.find d.lru off with n -> drop_node d n | exception Not_found -> ())

(* Publish a mapping and return its bucket, shedding residents if the
   look-up table itself is the bottleneck: on [Phash.Overload], evicting
   one entry leaves a tombstone, fenced before the retry may publish into
   its bucket. *)
let rec publish_mapping d ~key ~value ~locked ~pressure =
  match Phash.insert d.table ~key ~value with
  | bucket -> bucket
  | exception Phash.Overload _ ->
      release d
        (match evict_unpinned d ~locked with
        | -1 ->
            evict_relieved d ~locked ~pressure
              ~what:
                "Backup: dynamic look-up table exhausted — every resident copy is \
                 locked"
        | victim -> victim);
      Phash.fence d.table;
      publish_mapping d ~key ~value ~locked ~pressure

(* A miss: copy the range into a slot and publish its mapping. *)
let fill d ~main ~off ~len ~locked ~pressure =
  d.misses <- d.misses + 1;
  let slot = acquire_slot d (free_list d (slot_bytes len)) ~locked ~pressure in
  (* One fence per miss. The copy need only be durable before the key
     word that publishes it, so it is flushed without a fence of its own:
     the fence Phash's insert issues for the value word orders it, and the
     victim's tombstone too. Until the key lands the bucket is free, and
     every reader skips it, so any subset of the copy's lines may reach
     the medium. The key word is flushed only; the intent-log barrier that
     precedes the transaction's first in-place write makes it durable
     (DESIGN.md par17). *)
  Region.copy_between ~src:main ~src_off:off ~dst:d.slots ~dst_off:slot ~len;
  Region.flush d.slots slot len;
  let value = pack_slot ~slot ~len in
  let bucket = publish_mapping d ~key:off ~value ~locked ~pressure in
  Lru.add d.lru off ~slot:value ~bucket

let ensure_copy t ~main ~off ~len ~locked ~pressure =
  match t with
  | Full _ -> ()
  | Dynamic d -> (
      match Lru.find d.lru off with
      | n when len_of (Lru.slot n) = len ->
          d.hits <- d.hits + 1;
          (* FIFO ablation: recency is insertion order only. *)
          if d.policy = Lru_policy then Lru.touch d.lru n
      | n ->
          (* The same address hosts a different-sized object now (its
             previous allocation was rolled back by an abort or crash).
             The stale copy is useless — and copying the new extent into
             the undersized slot would corrupt its neighbours. *)
          drop_node d n;
          fill d ~main ~off ~len ~locked ~pressure
      | exception Not_found -> fill d ~main ~off ~len ~locked ~pressure)

let is_full t = match t with Full _ -> true | Dynamic _ -> false

let holds_copy t ~off ~len =
  match t with
  | Full _ -> true
  | Dynamic d -> (
      match Lru.find d.lru off with
      | n -> len_of (Lru.slot n) = len
      | exception Not_found -> false)

let has_copy t ~off =
  match t with Full _ -> true | Dynamic d -> Option.is_some (Phash.find d.table ~key:off)

(* The resident copy of exactly [(off, len)]; [what] names the caller in
   the failure. *)
let resident_slot d ~off ~len ~what =
  let packed = Lru.slot (Lru.find d.lru off) in
  if len_of packed <> len then
    failwith
      (Printf.sprintf "Backup.%s: resident copy at %d has length %d, range has %d" what off
         (len_of packed) len);
  slot_of packed

(* Copy and flush only; [settle] fences the batch. *)
let propagate t ~main ~off ~len =
  match t with
  | Full region ->
      Region.copy_between ~src:main ~src_off:off ~dst:region ~dst_off:off ~len;
      Region.flush region off len
  | Dynamic d ->
      let slot =
        try resident_slot d ~off ~len ~what:"propagate"
        with Not_found ->
          failwith
            (Printf.sprintf
               "Backup.propagate: no resident copy for range at %d — locking \
                discipline violated"
               off)
      in
      Region.copy_between ~src:main ~src_off:off ~dst:d.slots ~dst_off:slot ~len;
      Region.flush d.slots slot len

let settle t =
  match t with Full region -> Region.fence region | Dynamic d -> Region.fence d.slots

let roll_back t ~main ~off ~len =
  match t with
  | Full region ->
      Region.copy_between ~src:region ~src_off:off ~dst:main ~dst_off:off ~len;
      Region.persist main off len;
      true
  | Dynamic d -> (
      match resident_slot d ~off ~len ~what:"roll_back" with
      | exception Not_found -> false
      | slot ->
          Region.copy_between ~src:d.slots ~src_off:slot ~dst:main ~dst_off:off ~len;
          Region.persist main off len;
          true)

let hits t = match t with Full _ -> 0 | Dynamic d -> d.hits

let misses t = match t with Full _ -> 0 | Dynamic d -> d.misses

let evictions t = match t with Full _ -> 0 | Dynamic d -> d.evictions

let resident t = match t with Full _ -> 0 | Dynamic d -> Phash.count d.table

let migrations _ = 0

let copy_matches ?len t ~main ~off =
  match t with
  | Full region ->
      let len = Option.value len ~default:64 in
      Some (Region.equal_ranges region off main off len)
  | Dynamic d -> (
      match Phash.find d.table ~key:off with
      | None -> None
      | Some packed ->
          let stored_len = len_of packed in
          let len = min (Option.value len ~default:stored_len) stored_len in
          Some (Region.equal_ranges d.slots (slot_of packed) main off len))

let dump_mapping t =
  match t with
  | Full _ -> []
  | Dynamic d ->
      let acc = ref [] in
      Phash.iter d.table (fun ~key ~value ~bucket:_ ->
          acc := (key, slot_of value, len_of value) :: !acc);
      List.sort compare !acc

let check_resident t =
  match t with
  | Full _ -> Ok ()
  | Dynamic d ->
      let resident = ref [] in
      Lru.iter d.lru (fun n -> resident := (Lru.key n, Lru.slot n, Lru.bucket n) :: !resident);
      let show (k, v, b) = Printf.sprintf "(key %d, slot word %#x, bucket %d)" k v b in
      (* Both lists are sorted by key. *)
      let rec agree = function
        | [], [] -> Ok ()
        | ((k, v, b) :: rs, (k', v', b') :: es) when k = k' && v = v' && b = b' ->
            agree (rs, es)
        | r :: _, e :: _ ->
            Error (Printf.sprintf "resident map has %s, the table %s" (show r) (show e))
        | r :: _, [] -> Error (show r ^ " is in the resident map only")
        | [], e :: _ -> Error (show e ^ " is in the table only")
      in
      agree (List.sort compare !resident, Phash.entries d.table)
