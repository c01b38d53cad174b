module Region = Kamino_nvm.Region
module Cost_model = Kamino_nvm.Cost_model

type ptr = int

let null = 0

type range = { off : int; len : int }

(* Metadata block layout (offsets in bytes). *)
let magic_off = 0
let version_off = 8
let size_off = 16
let root_off = 24
let bump_off = 32
let free_heads_off = 64
let data_start_off = 512

let magic_value = 0x4B414D494E4F5458L (* "KAMINOTX" *)
let version_value = 2L

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

let () = assert (free_heads_off + (8 * n_classes) <= data_start_off)

let header_size = 16

(* Object header words, relative to the extent start (= ptr - header_size). *)
let hdr_capacity_rel = 0
let hdr_flags_rel = 8

(* Flags word values. Bit 0 = allocated; chained extents set an extra bit so
   a plain [free] cannot silently orphan the rest of a chain. Old images only
   ever contain 0/1, which decode identically under the [land 1] test. *)
let chain_head_flag = 3L
let chain_link_flag = 5L

(* Chain link payload prelude: every link starts with a next pointer; the
   head additionally records the total logical size. *)
let chain_head_meta = 16
let chain_link_meta = 8

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

(* The class of capacity [cap], or -1 if [cap] is not a class size. *)
let class_index cap = if is_class_size cap then class_slot cap else -1

let class_head_off cls = free_heads_off + (cls * 8)

(* --- Segment directory and occupancy accounting --------------------------

   Volatile, observability-only state: live objects/bytes, per-class
   occupancy and per-segment live bytes, maintained incrementally on
   alloc/free so [stats] is O(1) in steady state and O(heap) only after the
   allocator was mutated behind our back (crash recovery, abort rollback —
   the engine calls [mark_stats_stale] there). The resync walk uses the
   cost-free [Region.peek_*] reads: turning stats on must not charge a
   single simulated load, or the bit-identity oracles would drift. *)

let seg_shift = 20 (* 1 MiB segments *)

type t = {
  region : Region.t;
  mutable st_valid : bool;
  mutable st_objects : int;
  mutable st_bytes : int;
  mutable st_chained : int;
  st_class : int array; (* live objects per size class *)
  seg_live : int array; (* live extent bytes per segment *)
}

type stats = {
  segments_total : int;
  segments_live : int;
  live_objects : int;
  live_bytes : int;
  chained_objects : int;
  per_class : int array;
}

let mk_t region =
  let segs = max 1 ((Region.size region + (1 lsl seg_shift) - 1) lsr seg_shift) in
  {
    region;
    st_valid = false;
    st_objects = 0;
    st_bytes = 0;
    st_chained = 0;
    st_class = Array.make n_classes 0;
    seg_live = Array.make segs 0;
  }

let account_add t ~extent_off ~cap ~head_of_chain =
  t.st_objects <- t.st_objects + 1;
  t.st_bytes <- t.st_bytes + cap;
  if head_of_chain then t.st_chained <- t.st_chained + 1;
  let c = class_index cap in
  if c >= 0 then t.st_class.(c) <- t.st_class.(c) + 1;
  let s = extent_off lsr seg_shift in
  t.seg_live.(s) <- t.seg_live.(s) + header_size + cap

let account_remove t ~extent_off ~cap ~head_of_chain =
  t.st_objects <- t.st_objects - 1;
  t.st_bytes <- t.st_bytes - cap;
  if head_of_chain then t.st_chained <- t.st_chained - 1;
  let c = class_index cap in
  if c >= 0 then t.st_class.(c) <- t.st_class.(c) - 1;
  let s = extent_off lsr seg_shift in
  t.seg_live.(s) <- t.seg_live.(s) - header_size - cap

let mark_stats_stale t = t.st_valid <- false

let align16 n = (n + 15) land lnot 15

(* Cost-free whole-heap walk rebuilding the occupancy directory. Stops at
   anything that does not look like a header so a half-recovered heap cannot
   spin it; the next successful resync (or explicit validate) reports the
   truth. *)
let resync_stats t =
  Array.fill t.st_class 0 n_classes 0;
  Array.fill t.seg_live 0 (Array.length t.seg_live) 0;
  t.st_objects <- 0;
  t.st_bytes <- 0;
  t.st_chained <- 0;
  let limit = Region.peek_int t.region bump_off in
  let limit = min limit (Region.size t.region) in
  let rec walk off =
    let off = align16 off in
    if off + header_size <= limit then begin
      let cap = Region.peek_int t.region (off + hdr_capacity_rel) in
      if cap > 0 && cap <= max_object_size then begin
        let flags = Region.peek_int64 t.region (off + hdr_flags_rel) in
        if Int64.logand flags 1L = 1L then
          account_add t ~extent_off:off ~cap ~head_of_chain:(flags = chain_head_flag);
        walk (off + header_size + cap)
      end
    end
  in
  if limit >= data_start_off then walk data_start_off;
  t.st_valid <- true

let stats t =
  if not t.st_valid then resync_stats t;
  let live = ref 0 in
  Array.iter (fun b -> if b > 0 then incr live) t.seg_live;
  {
    segments_total = Array.length t.seg_live;
    segments_live = !live;
    live_objects = t.st_objects;
    live_bytes = t.st_bytes;
    chained_objects = t.st_chained;
    per_class = Array.copy t.st_class;
  }

let format region =
  if Region.size region < data_start_off + 4096 then
    invalid_arg "Heap.format: region too small";
  let t = mk_t region in
  Region.write_int64 region magic_off magic_value;
  Region.write_int64 region version_off version_value;
  Region.write_int region size_off (Region.size region);
  Region.write_int region root_off null;
  Region.write_int region bump_off data_start_off;
  for cls = 0 to n_classes - 1 do
    Region.write_int region (class_head_off cls) null
  done;
  Region.persist region 0 data_start_off;
  t.st_valid <- true;
  t

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
  (* [alloc] trusts the bump word and the free-list heads. Every value they
     ever hold, before or after a roll-back, passes; the reads are free. *)
  let bump = Region.peek_int region bump_off in
  if bump < data_start_off || bump > size then
    Region.corrupt ~structure ~off:bump_off "bump pointer %d out of range" bump;
  for cls = 0 to n_classes - 1 do
    let p = Region.peek_int region (class_head_off cls) in
    let last = size - size_classes.(cls) in
    if p <> null && (p land 15 <> 0 || p < data_start_off + header_size || p > last) then
      Region.corrupt ~structure ~off:(class_head_off cls) "class %d head %d out of range" cls p
  done;
  mk_t region

(* Allocation. *)

let bump t = Region.read_int t.region bump_off

let free_head t cls = Region.read_int t.region (class_head_off cls)

(* The allocator predictor: simulate [alloc] over [sizes] without mutating
   anything. Each allocation touches one allocator word (its class's
   free-list head on reuse, the bump pointer otherwise) and its extent.
   A free-list pop chases the popped object's on-NVM next pointer only when
   the class is popped again ([seen] maps a class to the object it popped
   last, or to [null] once its list ran dry), and bump allocations advance
   a local cursor, so predicting a single allocation reads exactly the
   words [alloc] is about to read. *)
let rec predict t sizes seen cursor =
  match sizes with
  | [] -> ([], [])
  | size :: rest ->
      let cls = class_of_size size in
      let extent_len = header_size + size_classes.(cls) in
      let head =
        match List.assoc_opt cls seen with
        | Some last -> if last = null then null else Region.read_int t.region last
        | None -> free_head t cls
      in
      if head <> null then begin
        let seen = if rest = [] then seen else (cls, head) :: seen in
        let ptrs, ranges = predict t rest seen cursor in
        ( head :: ptrs,
          { off = class_head_off cls; len = 8 }
          :: { off = head - header_size; len = extent_len }
          :: ranges )
      end
      else begin
        let b = align16 (if cursor < 0 then bump t else cursor) in
        if b + extent_len > Region.size t.region then raise Out_of_memory;
        let seen = if rest = [] then seen else (cls, null) :: seen in
        let ptrs, ranges = predict t rest seen (b + extent_len) in
        ( (b + header_size) :: ptrs,
          { off = bump_off; len = 8 } :: { off = b; len = extent_len } :: ranges )
      end

let alloc_many_ranges t sizes = predict t sizes [] (-1)

let alloc t size =
  let cls = class_of_size size in
  let capacity = size_classes.(cls) in
  Region.charge_alloc t.region;
  let head = free_head t cls in
  let p =
    if head <> null then begin
      (* Pop the free list: the object's first payload word links to the next
         free object of the class. *)
      let next = Region.read_int t.region head in
      Region.write_int t.region (class_head_off cls) next;
      Region.write_int64 t.region (head - header_size + hdr_flags_rel) 1L;
      Region.fill t.region head capacity 0;
      head
    end
    else begin
      let b = align16 (bump t) in
      let extent_len = header_size + capacity in
      if b + extent_len > Region.size t.region then raise Out_of_memory;
      Region.write_int t.region bump_off (b + extent_len);
      Region.write_int t.region (b + hdr_capacity_rel) capacity;
      Region.write_int64 t.region (b + hdr_flags_rel) 1L;
      (* A fresh bump object is already zero, but an object being re-formatted
         after a rollback may not be; zero it for deterministic contents. *)
      Region.fill t.region (b + header_size) capacity 0;
      b + header_size
    end
  in
  if t.st_valid then
    account_add t ~extent_off:(p - header_size) ~cap:capacity ~head_of_chain:false;
  p

let capacity t p =
  if p = null then invalid_arg "Heap.capacity: null pointer";
  Region.read_int t.region (p - header_size + hdr_capacity_rel)

let header_flags t p =
  if p <> null && p >= data_start_off + header_size && p < bump t then
    Region.read_int64 t.region (p - header_size + hdr_flags_rel)
  else 0L

let is_allocated t p = Int64.logand (header_flags t p) 1L = 1L

let extent t p =
  let cap = capacity t p in
  { off = p - header_size; len = header_size + cap }

let free_ranges t p =
  let cap = capacity t p in
  let cls = class_of_size cap in
  [ { off = class_head_off cls; len = 8 }; { off = p - header_size; len = header_size + cap } ]

let free_head_word { off = _; len } = class_head_off (class_of_size (len - header_size))

let free_one t p ~head_of_chain =
  Region.charge_free t.region;
  let cap = capacity t p in
  let cls = class_of_size cap in
  let head = free_head t cls in
  Region.write_int64 t.region (p - header_size + hdr_flags_rel) 0L;
  Region.write_int t.region p head;
  Region.write_int t.region (class_head_off cls) p;
  if t.st_valid then account_remove t ~extent_off:(p - header_size) ~cap ~head_of_chain

let free t p =
  let flags = header_flags t p in
  if Int64.logand flags 1L <> 1L then
    invalid_arg (Printf.sprintf "Heap.free: %d is not an allocated object" p);
  if flags <> 1L then
    invalid_arg
      (Printf.sprintf "Heap.free: %d belongs to a chained extent (use free_chain)" p);
  free_one t p ~head_of_chain:false

(* --- Chained extents ------------------------------------------------------

   Objects larger than [max_object_size] are carved into a linked chain of
   class-sized links: the head stores [next; total] before its data, every
   continuation stores [next]. The link sizes are a pure function of the
   total ([chain_plan]), so predicted ranges, the allocation itself and any
   later walk all agree without consulting the allocator. *)

let chain_plan size =
  if size <= 0 then invalid_arg "Heap: object size must be positive";
  let rec go remaining acc first =
    if remaining <= 0 then List.rev acc
    else begin
      let meta = if first then chain_head_meta else chain_link_meta in
      let data = min remaining (max_object_size - meta) in
      go (remaining - data) ((meta + data) :: acc) false
    end
  in
  go size [] true

let alloc_chain t size =
  let plan = chain_plan size in
  let links = List.map (fun link_size -> alloc t link_size) plan in
  (* Wire the chain back-to-front so every next pointer is written exactly
     once; all writes land inside the extents the caller declared. *)
  let rec wire = function
    | [] -> ()
    | [ last ] ->
        Region.write_int t.region last null
    | a :: (b :: _ as rest) ->
        wire rest;
        Region.write_int t.region a b
  in
  wire links;
  let head = List.hd links in
  Region.write_int64 t.region (head - header_size + hdr_flags_rel) chain_head_flag;
  List.iter
    (fun p ->
      if p <> head then Region.write_int64 t.region (p - header_size + hdr_flags_rel) chain_link_flag)
    links;
  Region.write_int t.region (head + chain_link_meta) size;
  if t.st_valid then t.st_chained <- t.st_chained + 1;
  head

let chain_links t p =
  let flags = header_flags t p in
  if flags <> chain_head_flag then
    invalid_arg (Printf.sprintf "Heap.chain_links: %d is not a chain head" p);
  let total = Region.read_int t.region (p + chain_link_meta) in
  let rec go p remaining first acc =
    let meta = if first then chain_head_meta else chain_link_meta in
    let data = min remaining (max_object_size - meta) in
    let acc = (p, meta, data) :: acc in
    let remaining = remaining - data in
    if remaining <= 0 then List.rev acc
    else go (Region.read_int t.region p) remaining false acc
  in
  go p total true []

let chain_size t p =
  let flags = header_flags t p in
  if flags <> chain_head_flag then
    invalid_arg (Printf.sprintf "Heap.chain_size: %d is not a chain head" p);
  Region.read_int t.region (p + chain_link_meta)

let free_chain t p =
  let links = chain_links t p in
  List.iteri
    (fun i (lp, _, _) -> free_one t lp ~head_of_chain:(i = 0))
    links

(* Root. *)

let root t = Region.read_int t.region root_off

let set_root t p =
  Region.write_int t.region root_off p;
  Region.persist t.region root_off 8

let root_range _t = { off = root_off; len = 8 }

(* Introspection. *)

let data_start _t = data_start_off

let iter_objects t f =
  let limit = bump t in
  let rec walk off =
    if off < limit then begin
      let off = align16 off in
      if off + header_size <= limit then begin
        let cap = Region.read_int t.region (off + hdr_capacity_rel) in
        let flags = Region.read_int64 t.region (off + hdr_flags_rel) in
        f (off + header_size) ~capacity:cap ~allocated:(Int64.logand flags 1L = 1L);
        walk (off + header_size + cap)
      end
    end
  in
  walk data_start_off

let live_objects t =
  let n = ref 0 in
  iter_objects t (fun _ ~capacity:_ ~allocated -> if allocated then incr n);
  !n

let live_bytes t =
  let n = ref 0 in
  iter_objects t (fun _ ~capacity ~allocated -> if allocated then n := !n + capacity);
  !n

let validate t =
  let error = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !error = None then error := Some s) fmt in
  let limit = bump t in
  if limit < data_start_off || limit > Region.size t.region then
    fail "bump pointer %d out of range" limit
  else begin
    (* Walk headers. *)
    let rec walk off =
      match !error with
      | Some _ -> ()
      | None ->
          let off = align16 off in
          if off + header_size <= limit then begin
            let cap = Region.read_int t.region (off + hdr_capacity_rel) in
            let flags = Region.read_int64 t.region (off + hdr_flags_rel) in
            if not (is_class_size cap) then
              fail "object at %d has non-class capacity %d" off cap
            else if
              flags <> 0L && flags <> 1L && flags <> chain_head_flag
              && flags <> chain_link_flag
            then fail "object at %d has corrupt flags %Ld" off flags
            else walk (off + header_size + cap)
          end
          else if off <> limit && off + header_size > limit then
            (* A partially bumped object would leave a gap; the bump word and
               the header are covered by the same intent so this indicates a
               recovery bug. *)
            fail "object area ends at %d but bump is %d" off limit
    in
    walk data_start_off;
    (* Check the free lists. *)
    if !error = None then
      Array.iteri
        (fun cls _ ->
          let seen = Hashtbl.create 16 in
          let rec follow p steps =
            if !error <> None then ()
            else if p <> null then begin
              if steps > 1_000_000 then fail "free list of class %d too long (cycle?)" cls
              else if Hashtbl.mem seen p then fail "free list of class %d has a cycle at %d" cls p
              else if is_allocated t p then
                fail "free list of class %d contains allocated object %d" cls p
              else begin
                Hashtbl.add seen p ();
                let cap = Region.read_int t.region (p - header_size + hdr_capacity_rel) in
                if cap <> size_classes.(cls) then
                  fail "free list of class %d contains object %d of capacity %d" cls p cap
                else follow (Region.read_int t.region p) (steps + 1)
              end
            end
          in
          follow (free_head t cls) 0)
        size_classes
  end;
  match !error with None -> Ok () | Some e -> Error e
