module Region = Kamino_nvm.Region
module Max_heap = Kamino_sim.Max_heap

type ptr = int

let null = 0

type range = { off : int; len : int }

(* Metadata block layout (offsets in bytes). *)
let magic_off = 0
let version_off = 8
let size_off = 16
let root_off = 24
let data_start_off = 512

let magic_value = 0x4B414D494E4F5458L (* "KAMINOTX" *)
let version_value = 3L

let structure = "Heap"

(* Size classes, jemalloc-style: multiples of 16 from 32 to 112, then four
   per power of two ([b], [1.25b], [1.5b], [1.75b] for [b] = 128 .. 131072),
   then 262144. Every class is a multiple of 16, and above 128 B a request
   wastes at most 20% of its class. *)
let size_classes =
  let small = List.init 6 (fun i -> 32 + (16 * i)) in
  let quarters =
    List.concat_map
      (fun k ->
        let b = 1 lsl k in
        [ b; b + (b / 4); b + (b / 2); b + (3 * b / 4) ])
      (List.init 11 (fun i -> 7 + i))
  in
  Array.of_list (small @ quarters @ [ 1 lsl 18 ])

let n_classes = Array.length size_classes

let max_object_size = size_classes.(n_classes - 1)

let header_size = 16

(* Object header words, relative to the extent start (= ptr - header_size). *)
let hdr_capacity_rel = 0
let hdr_flags_rel = 8

(* Index of the highest set bit of [n], for 0 < n < 2^32. *)
let msb n =
  let n = ref n and r = ref 0 in
  if !n lsr 16 <> 0 then begin
    n := !n lsr 16;
    r := 16
  end;
  if !n lsr 8 <> 0 then begin
    n := !n lsr 8;
    r := !r + 8
  end;
  if !n lsr 4 <> 0 then begin
    n := !n lsr 4;
    r := !r + 4
  end;
  if !n lsr 2 <> 0 then begin
    n := !n lsr 2;
    r := !r + 2
  end;
  if !n lsr 1 <> 0 then r := !r + 1;
  !r

(* The smallest class holding [size] bytes, 0 < size <= max_object_size,
   computed without scanning the table: 16 B steps up to 128; above, the
   leading bit of [size - 1] picks the power of two [b] and the next two
   bits the quarter of [b] the request exceeds. *)
let class_slot size =
  if size <= 128 then max 0 (((size + 15) lsr 4) - 2)
  else begin
    let s = size - 1 in
    let k = msb s in
    7 + (4 * (k - 7)) + ((s lsr (k - 2)) land 3)
  end

let class_of_size size =
  if size <= 0 then invalid_arg "Heap: object size must be positive";
  if size > max_object_size then
    invalid_arg (Printf.sprintf "Heap: object size %d exceeds max %d" size max_object_size);
  class_slot size

let is_class_size len =
  len > 0 && len <= max_object_size && size_classes.(class_slot len) = len

(* The allocator's working state is volatile: a bump cursor (the end of
   the last extent) and one max-heap per size class of the payload
   pointers of its free extents, so a class hands out its highest free
   extent first. The extent headers are its only persistent truth:
   [open_existing] rebuilds both from them, and the order makes the
   state a function of the heap image alone, so two images that agree
   byte for byte allocate alike however each got there (DESIGN.md §26).
   [pending] holds the extents the running transaction freed: only that
   transaction may reuse them before it ends, since it holds their
   locks, and they join [free] when it commits. *)
type t = {
  region : Region.t;
  mutable cursor : int;
  free : Max_heap.t array;
  mutable pending : range list;
}

let fresh region =
  { region; cursor = data_start_off; free = Array.init n_classes (fun _ -> Max_heap.create ()); pending = [] }

(* The one header walk: [f payload capacity allocated] on every extent
   in address order, from the object area's start to the first header
   whose capacity word is 0 (or the region's end), which it returns.
   [read] is the word reader: the charged loads, or the cost-free peeks.
   A header whose capacity is not a class size, whose extent overruns
   the region or whose flags word is neither 0 nor 1 ends the walk with
   [Error (offset of the word, why)]. *)
let walk read region f =
  let size = Region.size region in
  let max_cap = Int64.of_int max_object_size in
  let rec go off =
    if off + header_size > size then Ok off
    else
      let c = read region (off + hdr_capacity_rel) in
      if c = 0L then Ok off
      else if c < 0L || c > max_cap || not (is_class_size (Int64.to_int c)) then
        Error (off, Printf.sprintf "extent at %d has capacity %Ld, no size class" off c)
      else
        let cap = Int64.to_int c in
        if off + header_size + cap > size then
          Error (off, Printf.sprintf "extent at %d of capacity %d overruns the region" off cap)
        else
          match read region (off + hdr_flags_rel) with
          | (0L | 1L) as flags ->
              f (off + header_size) cap (flags = 1L);
              go (off + header_size + cap)
          | flags ->
              Error (off + hdr_flags_rel, Printf.sprintf "extent at %d has flags %Ld" off flags)
  in
  go data_start_off

type stats = { segments_live : int; live_objects : int; live_bytes : int }

(* 1 MiB segments: a segment is live when a live object's extent starts in
   it. *)
let seg_shift = 20

(* Through the cost-free peeks: reading stats must not charge a single
   simulated load, or the bit-identity oracles would drift. *)
let stats t =
  let segments = ref 0 and objects = ref 0 and bytes = ref 0 and last_seg = ref (-1) in
  ignore
    (walk Region.peek_int64 t.region (fun p cap allocated ->
         if allocated then begin
           let seg = (p - header_size) lsr seg_shift in
           if seg <> !last_seg then incr segments;
           last_seg := seg;
           incr objects;
           bytes := !bytes + cap
         end));
  { segments_live = !segments; live_objects = !objects; live_bytes = !bytes }

let format region =
  if Region.size region < data_start_off + 4096 then
    invalid_arg "Heap.format: region too small";
  Region.write_int64 region magic_off magic_value;
  Region.write_int64 region version_off version_value;
  Region.write_int region size_off (Region.size region);
  Region.write_int region root_off null;
  Region.persist region 0 (root_off + 8);
  fresh region

(* The volatile state the headers imply, through the charged loads. *)
let rebuild region =
  let t = fresh region in
  walk Region.read_int64 region (fun p cap allocated ->
      if not allocated then Max_heap.insert t.free.(class_slot cap) p)
  |> Result.map (fun last ->
         t.cursor <- last;
         t)

let open_existing region =
  let size = Region.size region in
  if Region.read_int64 region magic_off <> magic_value then
    Region.corrupt ~structure ~off:magic_off "bad magic (region was never formatted?)";
  let version = Region.read_int64 region version_off in
  if version <> version_value then
    Region.corrupt ~structure ~off:version_off "version %Ld, this build reads %Ld" version
      version_value;
  let word = Region.read_int region size_off in
  if word <> size then Region.corrupt ~structure ~off:size_off "size word %d, region %d" word size;
  match rebuild region with Ok t -> t | Error (off, why) -> Region.corrupt ~structure ~off "%s" why

(* Allocation. *)

type reservation = {
  ptrs : ptr list;
  ranges : range list;
  reused : range list;
  base : int;
  top : int;
  mutable published : bool;
}

let recycle t { off; len } = Max_heap.insert t.free.(class_slot (len - header_size)) (off + header_size)

(* Each extent returns where the claim took it from; fresh space returns
   to the cursor if nothing was claimed above it since, so reservations
   go back newest first. *)
let give_back t r =
  List.iter
    (fun e ->
      if List.memq e r.reused then t.pending <- e :: t.pending
      else if e.off < r.base then recycle t e)
    r.ranges;
  if t.cursor = r.top then t.cursor <- r.base

(* After a roll-back the pending frees' headers say allocated again, so
   they are dropped; otherwise they join their class's free extents. *)
let settle t ~rolled_back =
  if t.pending <> [] then begin
    if not rolled_back then List.iter (recycle t) t.pending;
    t.pending <- []
  end

let pending_frees t = t.pending <> []

let rec find_pending len = function
  | [] -> None
  | e :: rest -> if e.len = len then Some e else find_pending len rest

(* The running transaction's own frees of the class first, then the
   class's highest free extent, then fresh space at the cursor. *)
let reserve t sizes =
  let classes = List.map class_of_size sizes in
  let base = t.cursor in
  let rec claim acc reused = function
    | [] -> (List.rev acc, reused)
    | cls :: rest -> (
        let len = header_size + size_classes.(cls) in
        match find_pending len t.pending with
        | Some e ->
            t.pending <- List.filter (( != ) e) t.pending;
            claim (e :: acc) (e :: reused) rest
        | None when not (Max_heap.is_empty t.free.(cls)) ->
            claim ({ off = Max_heap.pop_max t.free.(cls) - header_size; len } :: acc) reused rest
        | None when t.cursor + len <= Region.size t.region ->
            t.cursor <- t.cursor + len;
            claim ({ off = t.cursor - len; len } :: acc) reused rest
        | None ->
            give_back t { ptrs = []; ranges = acc; reused; base; top = t.cursor; published = false };
            raise Out_of_memory)
  in
  let ranges, reused = claim [] [] classes in
  List.iter (fun _ -> Region.charge_alloc t.region) ranges;
  let ptrs = List.map (fun { off; _ } -> off + header_size) ranges in
  { ptrs; ranges; reused; base; top = t.cursor; published = false }

let publish t r =
  List.iter
    (fun { off; len } ->
      Region.write_int t.region (off + hdr_capacity_rel) (len - header_size);
      Region.write_int64 t.region (off + hdr_flags_rel) 1L;
      Region.fill t.region (off + header_size) (len - header_size) 0)
    r.ranges;
  r.published <- true

let capacity t p =
  if p = null then invalid_arg "Heap.capacity: null pointer";
  Region.read_int t.region (p - header_size + hdr_capacity_rel)

let is_allocated t p =
  p land 15 = 0
  && p >= data_start_off + header_size
  && p < t.cursor
  && Region.read_int64 t.region (p - header_size + hdr_flags_rel) = 1L

let extent t p =
  let cap = capacity t p in
  { off = p - header_size; len = header_size + cap }

let free t ({ off; _ } as e) =
  let p = off + header_size in
  if not (is_allocated t p) then
    invalid_arg (Printf.sprintf "Heap.free: %d is not an allocated object" p);
  Region.charge_free t.region;
  Region.write_int64 t.region (off + hdr_flags_rel) 0L;
  t.pending <- e :: t.pending

(* Root. *)

let root t = Region.read_int t.region root_off

let set_root t p =
  Region.write_int t.region root_off p;
  Region.persist t.region root_off 8

let root_range _t = { off = root_off; len = 8 }

(* Introspection. *)

let data_start _t = data_start_off

let iter_objects t f =
  ignore (walk Region.read_int64 t.region (fun p cap allocated -> f p ~capacity:cap ~allocated))

let validate t =
  let sorted t = Array.map (fun h -> List.sort compare (Max_heap.to_list h)) t.free in
  match rebuild t.region with
  | Error (_, why) -> Error why
  | Ok r when r.cursor <> t.cursor ->
      Error (Printf.sprintf "the extents end at %d but the cursor is at %d" r.cursor t.cursor)
  | Ok r when t.pending <> [] || sorted r <> sorted t ->
      Error "the free extents disagree with the headers"
  | Ok _ -> Ok ()
