module Heap = Kamino_heap.Heap
module Engine = Kamino_core.Engine
module Btree = Kamino_index.Btree

(* [at] is the handle's lookup scratch: every transactional operation
   descends into it once, and an insert or delete mutates at it. *)
type t = { engine : Engine.t; tree : Btree.t; value_size : int; at : Btree.cursor }

(* Store-descriptor object anchored at the heap root. *)
let sd_tree = 0
let sd_value_size = 8
let sd_size = 16

(* Value object: length word followed by the bytes. *)
let v_len = 0
let v_data = 8

let create engine ~value_size ~node_size =
  if value_size <= 0 || value_size > Heap.max_object_size - v_data then
    invalid_arg "Kv.create: bad value_size";
  Engine.with_tx engine (fun tx ->
      let tree = Btree.create tx ~node_size in
      let sd = Engine.alloc tx sd_size in
      Engine.write_int tx sd sd_tree (Btree.descriptor tree);
      Engine.write_int tx sd sd_value_size value_size;
      Engine.set_root tx sd;
      { engine; tree; value_size; at = Btree.cursor () })

let reattach engine =
  let sd = Engine.root engine in
  if sd = Heap.null then failwith "Kv.reattach: heap has no root (store never created?)";
  let tree = Btree.attach engine (Engine.peek_int engine sd sd_tree) in
  {
    engine;
    tree;
    value_size = Engine.peek_int engine sd sd_value_size;
    at = Btree.cursor ();
  }

let engine t = t.engine

let size t = Btree.cardinal t.tree

let check_value t value =
  if String.length value > t.value_size then
    invalid_arg
      (Printf.sprintf "Kv: value of %d bytes exceeds value_size %d" (String.length value)
         t.value_size)

let write_value tx vptr value =
  Engine.write_int tx vptr v_len (String.length value);
  Engine.write_string tx vptr v_data value

(* One descent per operation: [lookup] records the path in [t.at], and on
   a miss [insert_at] runs at it. Returns the bound value, [Heap.null] if
   none. *)
let lookup tx t key =
  Btree.seek_into tx t.tree t.at key;
  Btree.found t.at

(* The value's allocator search runs before the leaf is declared, under
   the allocator's mutex only, so it stays out of the leaf's lock hold;
   publishing the value after the leaf
   is declared lets one barrier cover the whole insert. *)
let insert_at tx t value =
  let r = Engine.reserve tx [ v_data + t.value_size ] in
  Btree.declare_insert tx t.at;
  let vptr = match Engine.publish tx r with [ p ] -> p | _ -> assert false in
  write_value tx vptr value;
  ignore (Btree.insert_at tx t.tree t.at vptr)

let put_tx tx t key value =
  check_value t value;
  let vptr = lookup tx t key in
  if vptr = Heap.null then insert_at tx t value
  else begin
    (* Update in place: the whole point of the comparison — undo logging
       snapshots the 1 KB object here, Kamino-Tx logs a 24-byte intent. *)
    Engine.add tx vptr;
    write_value tx vptr value
  end

let put t key value = Engine.with_tx t.engine (fun tx -> put_tx tx t key value)

(* Bulk load of a sorted key stream. Values are allocated and the index
   grown via {!Btree.append_sorted} — whole leaves stitched onto the
   rightmost spine — so loading n records is O(n) instead of the
   O(n log n) full descents that n [put]s cost. Each batch is one
   transaction sized to the intent-log budget: one intent per value
   object plus O(depth) for the touched index nodes. *)
let load t ~count ~key ~value =
  let mk = Btree.branching t.tree in
  let cfg = Engine.config t.engine in
  let chunk = max 1 (min mk (cfg.Engine.max_tx_entries - 48)) in
  let i = ref 0 in
  while !i < count do
    let n = min chunk (count - !i) in
    Engine.with_tx t.engine (fun tx ->
        let batch =
          Array.init n (fun j ->
              let idx = !i + j in
              let v = value idx in
              check_value t v;
              let vptr = Engine.alloc tx (v_data + t.value_size) in
              write_value tx vptr v;
              (key idx, vptr))
        in
        Btree.append_sorted tx t.tree batch);
    i := !i + n
  done

let get t key =
  Engine.with_tx t.engine (fun tx ->
      let vptr = lookup tx t key in
      if vptr = Heap.null then None
      else begin
        Engine.read_lock tx vptr;
        Some (Engine.read_prefixed tx vptr v_len ~max:t.value_size)
      end)

(* Read-only lookup served from the backup image at the applier's
   watermark: tree traversal and value bytes all come from the snapshot,
   so the result is the store's state at some committed prefix — no locks
   taken, writers never perturbed. Declines (falling back to the locked
   {!get}) when the engine has no servable backup or the store's creating
   transaction has not propagated yet (snapshot root still null — the
   backup image predates the store, and there is no tree to walk).
   A key absent from the snapshot's tree is a valid snapshot answer
   ([Some None]): the key did not exist at the watermark. *)
let snapshot_get ?clock t key =
  match
    Engine.read_tx ?clock t.engine (fun snap ->
        let sd = Engine.snapshot_root snap in
        if sd = Heap.null then None
        else if Engine.snapshot_read_int snap sd sd_tree <> Btree.descriptor t.tree
        then None
        else
          match Btree.find_snapshot snap t.tree key with
          | None -> Some None
          | Some vptr -> (
              match Engine.snapshot_read_prefixed snap vptr v_len ~max:t.value_size with
              | value -> Some (Some value)
              | exception Kamino_nvm.Region.Corrupt _ -> None))
  with
  | Some result -> result
  | None -> get t key

let delete_tx tx t key =
  let vptr = lookup tx t key in
  if vptr = Heap.null then false
  else begin
    Btree.declare_delete tx t.at;
    Engine.declare_free tx vptr;
    ignore (Btree.delete_at tx t.tree t.at);
    Engine.free tx vptr;
    true
  end

let delete t key = Engine.with_tx t.engine (fun tx -> delete_tx tx t key)

(* Apply [f] in place to the value at [vptr]. *)
let update_with tx t vptr f =
  Engine.add tx vptr;
  let value = f (Engine.read_prefixed tx vptr v_len ~max:t.value_size) in
  check_value t value;
  write_value tx vptr value

let read_modify_write t key f =
  Engine.with_tx t.engine (fun tx ->
      let vptr = lookup tx t key in
      if vptr = Heap.null then false
      else begin
        update_with tx t vptr f;
        true
      end)

let rmw_tx tx t key f =
  let vptr = lookup tx t key in
  if vptr <> Heap.null then update_with tx t vptr f
  else begin
    let value = f "" in
    check_value t value;
    insert_at tx t value
  end

let put_aborted t key value =
  check_value t value;
  let tx = Engine.begin_tx t.engine in
  put_tx tx t key value;
  Engine.abort tx

let value_ptr t key = Btree.find t.tree key

let exists t key = Btree.find t.tree key <> None

(* A committed value: its length word and bytes in one load. *)
let read_value t vptr = Engine.peek_prefixed t.engine vptr v_len ~max:t.value_size

let iter t f =
  Btree.iter t.tree (fun key vptr -> f key (read_value t vptr))

let range t ~lo ~hi =
  let acc = ref [] in
  Btree.range t.tree ~lo ~hi (fun key vptr -> acc := (key, read_value t vptr) :: !acc);
  List.rev !acc

(* Count-bounded committed-state scan (YCSB-E): [count] bindings from the
   first key >= [lo], charged O(tree depth + count) — the walk never
   depends on how many records lie past the window. *)
let scan t ~lo ~count f =
  Btree.scan t.tree ~lo ~count (fun key vptr -> f key (read_value t vptr))

(* Push the index-shape gauge into the engine's registry. [Btree.depth]
   reads through the cost-free probe path, so syncing gauges cannot
   perturb the simulated clock or the bit-identity oracles. *)
let sync_gauges t =
  let reg = Engine.registry t.engine in
  Kamino_obs.Metrics.set
    (Kamino_obs.Metrics.counter reg "btree.depth")
    (Btree.depth t.tree)

let validate t =
  match Btree.validate t.tree with
  | Error _ as e -> e
  | Ok () ->
      let heap = Engine.heap t.engine in
      let error = ref None in
      Btree.iter t.tree (fun key vptr ->
          if !error = None then begin
            if not (Heap.is_allocated heap vptr) then
              error := Some (Printf.sprintf "key %d points at unallocated value %d" key vptr)
            else begin
              let len = Engine.peek_int t.engine vptr v_len in
              if len < 0 || len > t.value_size then
                error := Some (Printf.sprintf "key %d has corrupt value length %d" key len)
            end
          end);
      (match !error with Some e -> Error e | None -> Ok ())
