(* Event ring. One slot per event, preallocated, all-int mutable
   fields: recording is seven stores and a couple of index updates, and
   the disabled path is a single load-and-branch on [enabled]. *)

type slot = {
  mutable kind : int;
  mutable track : int;
  mutable ts : int;
  mutable dur : int;
  mutable a : int;
  mutable b : int;
  mutable c : int;
}

type t = {
  enabled : bool;
  slots : slot array;
  mutable head : int; (* next slot to write *)
  mutable len : int; (* live events, <= capacity *)
  mutable dropped : int;
  mutable track_names : (int * string) list; (* setup-time only *)
}

(* Kind table. Keep [kind_name]/[kind_cat]/[arg_names] in sync: sinks
   render events purely from this metadata. *)

let k_flush = 0
let k_fence = 1
let k_intent = 2
let k_lock_wait = 3
let k_commit = 4
let k_abort = 5
let k_applier_task = 6
let k_applier_batch = 7
let k_queue_depth = 8
let k_hop = 9
let k_view_change = 10
let k_promote = 11
let k_fault = 12
let k_fs_op = 13

let kind_name = function
  | 0 -> "flush"
  | 1 -> "fence"
  | 2 -> "intent"
  | 3 -> "lock_wait"
  | 4 -> "commit"
  | 5 -> "abort"
  | 6 -> "applier_task"
  | 7 -> "applier_batch"
  | 8 -> "queue_depth"
  | 9 -> "hop"
  | 10 -> "view_change"
  | 11 -> "promote"
  | 12 -> "fault"
  | 13 -> "fs_op"
  | _ -> "unknown"

let kind_cat = function
  | 0 | 1 -> "nvm"
  | 2 | 3 | 4 | 5 -> "tx"
  | 6 | 7 | 8 -> "applier"
  | 9 | 10 | 11 -> "chain"
  | 12 -> "chaos"
  | 13 -> "fs"
  | _ -> "unknown"

let arg_names = function
  | 0 -> ("lines", "off", "")
  | 1 -> ("", "", "")
  | 2 -> ("off", "len", "")
  | 3 -> ("key", "dependent", "tx")
  | 4 -> ("tx", "ranges", "slot")
  | 5 -> ("tx", "", "")
  | 6 -> ("tx", "ranges", "bytes")
  | 7 -> ("tasks", "ranges", "")
  | 8 -> ("depth", "", "")
  | 9 -> ("seq", "src", "dst")
  | 10 -> ("view", "removed", "")
  | 11 -> ("node", "view", "")
  | 12 -> ("fault", "node", "event")
  | 13 -> ("op", "ino", "aux")
  | _ -> ("a", "b", "c")

let make_slots n =
  Array.init n (fun _ ->
      { kind = 0; track = 0; ts = 0; dur = 0; a = 0; b = 0; c = 0 })

let null =
  {
    enabled = false;
    slots = make_slots 1;
    head = 0;
    len = 0;
    dropped = 0;
    track_names = [];
  }

let create ?(capacity = 65536) () =
  let capacity = max 16 capacity in
  {
    enabled = true;
    slots = make_slots capacity;
    head = 0;
    len = 0;
    dropped = 0;
    track_names = [];
  }

let enabled t = t.enabled

let emit t ~kind ~track ~ts ~dur ~a ~b ~c =
  if t.enabled then begin
    let cap = Array.length t.slots in
    let s = Array.unsafe_get t.slots t.head in
    s.kind <- kind;
    s.track <- track;
    s.ts <- ts;
    s.dur <- dur;
    s.a <- a;
    s.b <- b;
    s.c <- c;
    t.head <- (if t.head + 1 = cap then 0 else t.head + 1);
    if t.len < cap then t.len <- t.len + 1 else t.dropped <- t.dropped + 1
  end

let name_track t id name =
  if t.enabled then
    t.track_names <- (id, name) :: List.remove_assoc id t.track_names

let length t = t.len
let capacity t = Array.length t.slots
let dropped t = t.dropped
let total t = t.len + t.dropped

let reset t =
  t.head <- 0;
  t.len <- 0;
  t.dropped <- 0

let iter t f =
  let cap = Array.length t.slots in
  let start = (t.head - t.len + cap) mod cap in
  for i = 0 to t.len - 1 do
    let s = Array.unsafe_get t.slots ((start + i) mod cap) in
    f ~kind:s.kind ~track:s.track ~ts:s.ts ~dur:s.dur ~a:s.a ~b:s.b ~c:s.c
  done

let tracks t =
  List.sort (fun (i, _) (j, _) -> compare i j) t.track_names

(* Deterministic merge of per-domain (per-shard) rings into one timeline.
   Events are keyed by (track, ts) with a *stable* sort, so equal keys
   keep concatenation order — and concatenation order is ring-array
   order, fixed by the caller (shard id), never by which domain finished
   first. Under the parallel driver every track is written by exactly one
   ring, so within a track the merged order is exactly that ring's
   emission order and the result is bit-identical across domain counts.
   Capacity and drop counts sum, keeping sink trailers faithful. *)
let merged rings =
  let live = List.filter enabled (Array.to_list rings) in
  match live with
  | [] -> null
  | _ ->
      let cap = List.fold_left (fun acc r -> acc + capacity r) 0 live in
      let out = create ~capacity:cap () in
      let events = ref [] in
      let n = ref 0 in
      List.iter
        (fun r ->
          iter r (fun ~kind ~track ~ts ~dur ~a ~b ~c ->
              events := (track, ts, !n, (kind, dur, a, b, c)) :: !events;
              incr n))
        live;
      let sorted =
        List.sort
          (fun (t1, ts1, i1, _) (t2, ts2, i2, _) ->
            match compare t1 t2 with
            | 0 -> ( match compare ts1 ts2 with 0 -> compare i1 i2 | d -> d)
            | d -> d)
          (List.rev !events)
      in
      List.iter
        (fun (track, ts, _, (kind, dur, a, b, c)) ->
          emit out ~kind ~track ~ts ~dur ~a ~b ~c)
        sorted;
      out.dropped <- List.fold_left (fun acc r -> acc + dropped r) 0 live;
      List.iter
        (fun r ->
          List.iter (fun (id, name) -> name_track out id name) (tracks r))
        live;
      out
