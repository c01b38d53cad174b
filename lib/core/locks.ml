type key = int

type entry = {
  mutable writer_release : int;
  mutable reader_release : int;
  mutable active : bool;
  mutable last_task : int;
  mutable held_base : int;  (* release time saved while held open-ended *)
}

(* The table is striped into [shards] independent hash tables so that large
   write sets spread their probe/insert cost instead of hammering one
   table's buckets. Keys are NVM byte offsets; dropping the low 6 bits
   before sharding keeps a cache line's worth of metadata words in one
   shard while still spreading distinct objects. *)
type t = {
  shards : (key, entry) Hashtbl.t array;
  mutable waits : int;
  mutable wait_events : int;
  mutable acquisitions : int;  (* acquires that charged [cost_ns] *)
}

let default_shards = 16

let create ?(shards = default_shards) () =
  let shards = max 1 shards in
  {
    shards = Array.init shards (fun _ -> Hashtbl.create (4096 / shards + 1));
    waits = 0;
    wait_events = 0;
    acquisitions = 0;
  }

let shard_count t = Array.length t.shards

let shard t key = t.shards.((key lsr 6) mod Array.length t.shards)

let entry t key =
  let table = shard t key in
  match Hashtbl.find_opt table key with
  | Some e -> e
  | None ->
      let e =
        { writer_release = 0; reader_release = 0; active = false; last_task = -1;
          held_base = 0 }
      in
      Hashtbl.add table key e;
      e

let record_wait t now target =
  if target > now then begin
    t.waits <- t.waits + (target - now);
    t.wait_events <- t.wait_events + 1
  end

let entry_of = entry

(* A lock under [hold_writes] has no release time yet ([max_int]). The
   acquirer does not wait for it: the event is counted, no wait time is
   added, and the lock is held at [now] with no lock cost charged. *)
let count_open_hold t = t.wait_events <- t.wait_events + 1

let acquire_write_e t e ~now ~cost_ns =
  e.active <- true;
  let avail = max e.writer_release e.reader_release in
  if avail = max_int then begin
    count_open_hold t;
    now
  end
  else begin
    record_wait t now avail;
    t.acquisitions <- t.acquisitions + 1;
    max now avail + int_of_float cost_ns
  end

let acquire_read_e t e ~now ~cost_ns =
  if e.writer_release = max_int then begin
    count_open_hold t;
    now
  end
  else begin
    record_wait t now e.writer_release;
    t.acquisitions <- t.acquisitions + 1;
    max now e.writer_release + int_of_float cost_ns
  end

let release_write_e e ~at =
  e.active <- false;
  if at > e.writer_release then e.writer_release <- at

let release_read_e e ~at = if at > e.reader_release then e.reader_release <- at

let last_writer_task_e e = e.last_task

let set_last_writer_task_e e id = e.last_task <- id

let acquire_write t key ~now ~cost_ns = acquire_write_e t (entry t key) ~now ~cost_ns

let acquire_read t key ~now ~cost_ns = acquire_read_e t (entry t key) ~now ~cost_ns

let release_writes t keys ~at = List.iter (fun key -> release_write_e (entry t key) ~at) keys

let release_reads t keys ~at = List.iter (fun key -> release_read_e (entry t key) ~at) keys

let held_by_active_tx t key =
  match Hashtbl.find_opt (shard t key) key with
  | Some e -> e.active
  | None -> false

let wait_until t ~now until =
  record_wait t now until;
  max now until

let last_writer_task t key =
  match Hashtbl.find_opt (shard t key) key with
  | Some e -> e.last_task
  | None -> -1

let set_last_writer_task t key id = (entry t key).last_task <- id

let hold_writes t keys =
  List.iter
    (fun key ->
      let e = entry t key in
      e.held_base <- e.writer_release;
      e.writer_release <- max_int)
    keys

let release_held_writes t keys ~at =
  List.iter
    (fun key ->
      let e = entry t key in
      if e.writer_release = max_int then e.writer_release <- max e.held_base at
      else if at > e.writer_release then e.writer_release <- at)
    keys

let waits t = t.waits

let wait_events t = t.wait_events

let acquisitions t = t.acquisitions

let reset_stats t =
  t.waits <- 0;
  t.wait_events <- 0;
  t.acquisitions <- 0
