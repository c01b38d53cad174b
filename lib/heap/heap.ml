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

let class_head_off cls = free_heads_off + (cls * 8)

type t = { region : Region.t }

let align16 n = (n + 15) land lnot 15

type stats = { segments_live : int; live_objects : int; live_bytes : int }

(* 1 MiB segments: a segment is live when a live object's extent starts in
   it. *)
let seg_shift = 20

(* A whole-heap walk through the cost-free [Region.peek_*] reads: reading
   stats must not charge a single simulated load, or the bit-identity
   oracles would drift. Stops at anything that does not look like a header
   so a half-recovered heap cannot spin it. *)
let stats t =
  let limit = min (Region.peek_int t.region bump_off) (Region.size t.region) in
  let segments = ref 0 and objects = ref 0 and bytes = ref 0 in
  let off = ref data_start_off and last_seg = ref (-1) in
  while !off + header_size <= limit do
    let cap = Region.peek_int t.region (!off + hdr_capacity_rel) in
    if cap <= 0 || cap > max_object_size then off := limit
    else begin
      if Region.peek_int64 t.region (!off + hdr_flags_rel) = 1L then begin
        let seg = !off lsr seg_shift in
        if seg <> !last_seg then incr segments;
        last_seg := seg;
        incr objects;
        bytes := !bytes + cap
      end;
      off := align16 (!off + header_size + cap)
    end
  done;
  { segments_live = !segments; live_objects = !objects; live_bytes = !bytes }

let format region =
  if Region.size region < data_start_off + 4096 then
    invalid_arg "Heap.format: region too small";
  Region.write_int64 region magic_off magic_value;
  Region.write_int64 region version_off version_value;
  Region.write_int region size_off (Region.size region);
  Region.write_int region root_off null;
  Region.write_int region bump_off data_start_off;
  for cls = 0 to n_classes - 1 do
    Region.write_int region (class_head_off cls) null
  done;
  Region.persist region 0 data_start_off;
  { region }

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
  (* The carve trusts the bump word and the free-list heads. Every value they
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
  { region }

(* Allocation. *)

let bump t = Region.read_int t.region bump_off

let free_head t cls = Region.read_int t.region (class_head_off cls)

(* The allocator's search: simulate the carves over [sizes] without mutating
   anything. Each allocation touches one allocator word (its class's
   free-list head on reuse, the bump pointer otherwise) and its extent.
   A free-list pop chases the popped object's on-NVM next pointer only when
   the class is popped again ([seen] maps a class to the object it popped
   last, or to [null] once its list ran dry), and bump allocations advance
   a local cursor, so predicting a single allocation reads exactly the
   words the carve is about to read. *)
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

type reservation = { sizes : int list; ptrs : ptr list; ranges : range list }

let rec charge_each t = function
  | [] -> ()
  | _ :: rest ->
      Region.charge_alloc t.region;
      charge_each t rest

let reserve t sizes =
  let ptrs, ranges = predict t sizes [] (-1) in
  charge_each t sizes;
  { sizes; ptrs; ranges }

(* Carve one object of [size]: pop its class's free list, or bump. The
   allocator's search is charged by [reserve]. *)
let carve t size =
  let cls = class_of_size size in
  let capacity = size_classes.(cls) in
  let head = free_head t cls in
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

let rec publish_all t sizes ptrs =
  match (sizes, ptrs) with
  | size :: sizes, p :: ptrs ->
      if carve t size <> p then
        invalid_arg (Printf.sprintf "Heap.publish: object %d is no longer the next carve" p);
      publish_all t sizes ptrs
  | _ -> ()

let publish t r = publish_all t r.sizes r.ptrs

let capacity t p =
  if p = null then invalid_arg "Heap.capacity: null pointer";
  Region.read_int t.region (p - header_size + hdr_capacity_rel)

let header_flags t p =
  if p <> null && p >= data_start_off + header_size && p < bump t then
    Region.read_int64 t.region (p - header_size + hdr_flags_rel)
  else 0L

let is_allocated t p = header_flags t p = 1L

let extent t p =
  let cap = capacity t p in
  { off = p - header_size; len = header_size + cap }

let free_ranges t p =
  let cap = capacity t p in
  let cls = class_of_size cap in
  [ { off = class_head_off cls; len = 8 }; { off = p - header_size; len = header_size + cap } ]

let free_head_word { off = _; len } = class_head_off (class_of_size (len - header_size))

let free t p =
  if not (is_allocated t p) then
    invalid_arg (Printf.sprintf "Heap.free: %d is not an allocated object" p);
  Region.charge_free t.region;
  let cap = capacity t p in
  let cls = class_of_size cap in
  let head = free_head t cls in
  Region.write_int64 t.region (p - header_size + hdr_flags_rel) 0L;
  Region.write_int t.region p head;
  Region.write_int t.region (class_head_off cls) p

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
        f (off + header_size) ~capacity:cap ~allocated:(flags = 1L);
        walk (off + header_size + cap)
      end
    end
  in
  walk data_start_off

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
            else if flags <> 0L && flags <> 1L then
              fail "object at %d has corrupt flags %Ld" off flags
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
