module Region = Kamino_nvm.Region
module Cost_model = Kamino_nvm.Cost_model
module Clock = Kamino_sim.Clock

type phase = Idle | Running | Applying

type replay = On_abort | On_commit

type entry = { off : int; len : int; payload_off : int; replay : replay }

type t = {
  region : Region.t;
  mutable active : bool;
  mutable bump : int;  (* next free arena offset, reset per transaction *)
  mutable entries : entry list;  (* reverse order *)
  mutable unflushed : (int * int) option;  (* dirty span awaiting barrier *)
  mutable created : int;
  (* Header writes are deferred to the first [add] so read-only
     transactions never touch the log region (NVML's undo log is likewise
     untouched until the first TX_ADD). *)
  mutable header_written : bool;
  mutable cur_tx_id : int;
  (* The log is one shared structure: concurrent transactions serialize on
     its tail (NVML's undo log behaves the same way), which is what keeps
     the copying baselines from scaling with client threads (Figure 12).
     [shared_now] is the virtual time at which the last append finished. *)
  mutable shared_now : int;
}

let magic_value = 0x4B54444154415631L (* "KTDATAV1" *)

let magic_off = 0
let phase_off = 8
let txid_off = 16
let count_off = 24
let arena_start = 64
let structure = "Data_log"

let entry_header_size = 32

(* Entry header words, relative to entry start. *)
let eh_off = 0
let eh_len = 8
let eh_check = 16
let eh_replay = 24

let replay_to_int = function On_abort -> 1 | On_commit -> 2

let replay_of_int = function
  | 1 -> Some On_abort
  | 2 -> Some On_commit
  | _ -> None

let phase_to_int = function Idle -> 0 | Running -> 1 | Applying -> 2

let required_size ~arena_bytes = arena_start + arena_bytes

let align8 n = (n + 7) land lnot 7

let format region =
  Region.write_int64 region magic_off magic_value;
  Region.write_int region phase_off (phase_to_int Idle);
  Region.write_int region txid_off 0;
  Region.write_int region count_off 0;
  Region.persist region 0 arena_start;
  { region; active = false; bump = arena_start; entries = []; unflushed = None; created = 0;
    header_written = false; cur_tx_id = 0; shared_now = 0 }

(* The header may hold a record that recovery is about to replay:
   [header_written] lets that recovery's [finish] reset it durably, or
   the record would be replayed again at the next crash, over
   transactions that committed after it. *)
let open_existing region =
  if Region.read_int64 region magic_off <> magic_value then
    Region.corrupt ~structure ~off:magic_off "bad magic";
  { region; active = false; bump = arena_start; entries = []; unflushed = None; created = 0;
    header_written = true; cur_tx_id = 0; shared_now = 0 }

let phase t =
  match Region.read_int t.region phase_off with
  | 0 -> Idle
  | 1 -> Running
  | 2 -> Applying
  | n -> Region.corrupt ~structure ~off:phase_off "phase %d outside 0..2" n

let tx_id t = Region.read_int t.region txid_off

(* Payload checksum folded into the entry tag; must be a pure function of
   the payload bytes so recovery can recompute it. *)
let payload_sum t payload_off len =
  let b = Region.read_bytes t.region payload_off len in
  let acc = ref 0L in
  for i = 0 to len - 1 do
    acc :=
      Int64.add
        (Int64.mul !acc 1099511628211L)
        (Int64.of_int (Bytes.get_uint8 b i + 1))
  done;
  !acc

let check_of ~tx_id ~off ~len ~replay ~sum =
  let r = replay_to_int replay in
  let z =
    Int64.add 0x5A17EDC0DE5EEDL
      (Int64.add sum
         (Int64.of_int ((((tx_id * 1000003) lxor (off * 31)) + (len * 17)) lxor (r * 8191))))
  in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  Int64.logxor z (Int64.shift_right_logical z 27)

let note_unflushed t lo hi =
  match t.unflushed with
  | Some (l, h) -> t.unflushed <- Some (min l lo, max h hi)
  | None -> t.unflushed <- Some (lo, hi)

let begin_tx t ~tx_id =
  if t.active then failwith "Data_log.begin_tx: a transaction is already active";
  t.active <- true;
  t.bump <- arena_start;
  t.entries <- [];
  t.cur_tx_id <- tx_id;
  t.header_written <- false

let ensure_header t =
  if not t.header_written then begin
    Region.write_int t.region phase_off (phase_to_int Running);
    Region.write_int t.region txid_off t.cur_tx_id;
    Region.write_int t.region count_off 0;
    note_unflushed t 0 32;
    t.header_written <- true
  end

let seal t entry =
  let sum = payload_sum t entry.payload_off entry.len in
  let check =
    check_of ~tx_id:(tx_id t) ~off:entry.off ~len:entry.len ~replay:entry.replay ~sum
  in
  Region.write_int64 t.region (entry.payload_off - entry_header_size + eh_check) check

(* Re-source the parts of a fresh payload for [off, off+len) that the
   entries of [over] cover, in list order. Top-level, not a closure: the
   no-overlap call must allocate nothing. *)
let rec overlay t ~off ~len ~payload_off = function
  | [] -> ()
  | e :: rest ->
      let lo = max off e.off and hi = min (off + len) (e.off + e.len) in
      if lo < hi then
        Region.blit_uncharged t.region ~src:(e.payload_off + lo - e.off)
          ~dst:(payload_off + lo - off) ~len:(hi - lo);
      overlay t ~off ~len ~payload_off rest

let add ?(over = []) t ~off ~len ~replay ~src =
  if not t.active then failwith "Data_log.add: no active transaction";
  ensure_header t;
  (* Serialize on the shared log tail. *)
  let clock = Region.clock t.region in
  ignore (Clock.advance_to clock t.shared_now);
  (* The copying baselines pay log-entry management for every copy they
     create — the allocate/index/deallocate instruction overhead the paper
     measures (NVML allocates log entries from a transactional pool). *)
  Region.charge_log_entry t.region;
  let start = t.bump in
  let payload_off = start + entry_header_size in
  let entry_end = align8 (payload_off + len) in
  if entry_end > Region.size t.region then failwith "Data_log.add: arena exhausted";
  t.bump <- entry_end;
  Region.write_int t.region (start + eh_off) off;
  Region.write_int t.region (start + eh_len) len;
  Region.write_int t.region (start + eh_replay) (replay_to_int replay);
  Region.copy_between ~src ~src_off:off ~dst:t.region ~dst_off:payload_off ~len;
  overlay t ~off ~len ~payload_off over;
  let entry = { off; len; payload_off; replay } in
  seal t entry;
  Region.write_int t.region count_off (List.length t.entries + 1);
  t.entries <- entry :: t.entries;
  t.created <- t.created + 1;
  note_unflushed t 0 entry_end;
  (* NVML persists each snapshot as it is taken (the write may follow
     immediately), so every add pays its own flush + fence. Small ranges go
     through the serializing CLFLUSH path; larger ones use non-temporal
     stores, whose persistence cost is the copy bandwidth already charged
     plus the fence. *)
  (match t.unflushed with
  | Some (lo, hi) ->
      let lines = ((hi - 1) / 64) - (lo / 64) + 1 in
      if lines <= 4 then Region.charge_clflush t.region lines;
      Region.persist t.region lo (hi - lo);
      t.unflushed <- None
  | None -> ());
  t.shared_now <- Clock.now clock;
  entry

let payload_write_bytes t entry rel b =
  if rel < 0 || rel + Bytes.length b > entry.len then
    invalid_arg "Data_log.payload_write_bytes: out of entry range";
  Region.write_bytes t.region (entry.payload_off + rel) b;
  note_unflushed t (entry.payload_off + rel) (entry.payload_off + rel + Bytes.length b)

let payload_write_string t entry rel s =
  if rel < 0 || rel + String.length s > entry.len then
    invalid_arg "Data_log.payload_write_string: out of entry range";
  Region.write_string t.region (entry.payload_off + rel) s;
  note_unflushed t (entry.payload_off + rel) (entry.payload_off + rel + String.length s)

let payload_write_int64 t entry rel v =
  if rel < 0 || rel + 8 > entry.len then
    invalid_arg "Data_log.payload_write_int64: out of entry range";
  Region.write_int64 t.region (entry.payload_off + rel) v;
  note_unflushed t (entry.payload_off + rel) (entry.payload_off + rel + 8)

let payload_write_int t entry rel v =
  if rel < 0 || rel + 8 > entry.len then
    invalid_arg "Data_log.payload_write_int: out of entry range";
  Region.write_int t.region (entry.payload_off + rel) v;
  note_unflushed t (entry.payload_off + rel) (entry.payload_off + rel + 8)

let payload_write_byte t entry rel v =
  if rel < 0 || rel + 1 > entry.len then
    invalid_arg "Data_log.payload_write_byte: out of entry range";
  Region.write_byte t.region (entry.payload_off + rel) v;
  note_unflushed t (entry.payload_off + rel) (entry.payload_off + rel + 1)

let payload_read_bytes t entry rel len =
  if rel < 0 || rel + len > entry.len then
    invalid_arg "Data_log.payload_read_bytes: out of entry range";
  Region.read_bytes t.region (entry.payload_off + rel) len

let payload_read_int64 t entry rel =
  if rel < 0 || rel + 8 > entry.len then
    invalid_arg "Data_log.payload_read_int64: out of entry range";
  Region.read_int64 t.region (entry.payload_off + rel)

let payload_read_int t entry rel =
  if rel < 0 || rel + 8 > entry.len then
    invalid_arg "Data_log.payload_read_int: out of entry range";
  Region.read_int t.region (entry.payload_off + rel)

let payload_read_byte t entry rel =
  if rel < 0 || rel + 1 > entry.len then
    invalid_arg "Data_log.payload_read_byte: out of entry range";
  Region.read_byte t.region (entry.payload_off + rel)

let reseal t entry =
  seal t entry;
  note_unflushed t (entry.payload_off - entry_header_size) entry.payload_off

let barrier t =
  match t.unflushed with
  | Some (lo, hi) ->
      Region.persist t.region lo (hi - lo);
      t.unflushed <- None
  | None -> ()

let mark_applying t =
  barrier t;
  Region.write_int t.region phase_off (phase_to_int Applying);
  Region.persist t.region phase_off 8

let finish t =
  (* Reset the whole header in one atomic line flush; see the intent log's
     [release] for why a zeroed base state makes torn restarts benign.
     Transactions that never created an entry never wrote the header, so
     the durable state is still Idle and nothing needs persisting. *)
  if t.header_written then begin
    Region.write_int t.region phase_off (phase_to_int Idle);
    Region.write_int t.region txid_off 0;
    Region.write_int t.region count_off 0;
    Region.persist t.region phase_off 24
  end;
  t.active <- false;
  t.entries <- [];
  t.bump <- arena_start;
  t.unflushed <- None;
  t.header_written <- false

let active_entries t = List.rev t.entries

let recover_entries t =
  (* Walk entry headers and validate each entry independently. A
     checksum-invalid entry is SKIPPED, not a stopping point: a CoW working
     copy whose payload was being edited at the crash legitimately fails its
     (commit-time) checksum, while undo snapshots appended after it are
     durable and must still be applied. The walk itself is safe because the
     barrier discipline persists every entry header before the first
     in-place write it covers — an entry with a torn header can only sit at
     the (unbarriered) tail, where no covered write ever reached NVM, so
     stopping there loses nothing. *)
  let n = Region.read_int t.region count_off in
  let txid = tx_id t in
  let size = Region.size t.region in
  let rec walk i pos acc =
    if i >= n || pos + entry_header_size > size then List.rev acc
    else
      let off = Region.read_int t.region (pos + eh_off) in
      let len = Region.read_int t.region (pos + eh_len) in
      let stored = Region.read_int64 t.region (pos + eh_check) in
      (* [len > size - payload_off], not [payload_off + len > size]: no
         length word can wrap the check. *)
      let payload_off = pos + entry_header_size in
      match replay_of_int (Region.read_int t.region (pos + eh_replay)) with
      | Some replay when len > 0 && len <= size - payload_off ->
          let sum = payload_sum t payload_off len in
          let next = align8 (payload_off + len) in
          if stored <> check_of ~tx_id:txid ~off ~len ~replay ~sum then walk (i + 1) next acc
          else walk (i + 1) next ({ off; len; payload_off; replay } :: acc)
      | Some _ | None -> List.rev acc
  in
  walk 0 arena_start []

let apply_entry t entry ~dst =
  Region.copy_between ~src:t.region ~src_off:entry.payload_off ~dst ~dst_off:entry.off
    ~len:entry.len

let entries_created t = t.created
