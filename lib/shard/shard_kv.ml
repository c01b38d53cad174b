module Engine = Kamino_core.Engine
module Kv = Kamino_kv.Kv

type t = { shard : Shard.t; stores : Kv.t array }

let create shard ~value_size ~node_size =
  let stores =
    Array.init (Shard.shards shard) (fun i ->
        Kv.create (Shard.engine shard i) ~value_size ~node_size)
  in
  { shard; stores }

let reattach shard =
  let stores =
    Array.init (Shard.shards shard) (fun i -> Kv.reattach (Shard.engine shard i))
  in
  { shard; stores }

let shard t = t.shard

let store t i = t.stores.(i)

let store_of_key t key = t.stores.(Shard.route t.shard key)

let size t = Array.fold_left (fun acc s -> acc + Kv.size s) 0 t.stores

(* Single-key operations: route, then run on the owning shard's store as
   a plain single-shard transaction. *)
let put t key value = Kv.put (store_of_key t key) key value

let get t key = Kv.get (store_of_key t key) key

(* Routed snapshot reads: each key is served from its owning shard's
   backup at that shard's own watermark — per-shard consistency, no
   cross-shard watermark exists. Zero locks on the snapshot path, so a
   concurrent cross-shard [multi_put] holding its whole lock set cannot
   block these. *)
let snapshot_get ?clock t key = Kv.snapshot_get ?clock (store_of_key t key) key

let snapshot_multi_get ?clock t keys =
  List.map (fun key -> (key, snapshot_get ?clock t key)) keys

let delete t key = Kv.delete (store_of_key t key) key

let read_modify_write t key f = Kv.read_modify_write (store_of_key t key) key f

let exists t key = Kv.exists (store_of_key t key) key

let range t i ~lo ~hi = Kv.range t.stores.(i) ~lo ~hi

(* Keys are hash-routed, so the ordered successor set of [lo] lives on the
   shard that owns [lo]'s slice of the key space — YCSB-E's scan runs
   against the owning store's leaf chain. *)
let scan t ~lo ~count f = Kv.scan (store_of_key t lo) ~lo ~count f

(* [multi_put] is the cross-shard client: all bindings become visible
   atomically even when their keys route to different shards. The
   single-shard case degenerates to one plain transaction — no marker,
   no 2PC. Under the parallel driver pass [router] (and the calling
   client's home shard as [from]): foreign-shard batches then lease the
   owning executor domains instead of racing them, and the single-shard
   home case stays lock-free. *)
let multi_put ?router ?(from = 0) t bindings =
  match bindings with
  | [] -> ()
  | _ ->
      let by_shard = Hashtbl.create 8 in
      List.iter
        (fun (key, value) ->
          let i = Shard.route t.shard key in
          Hashtbl.replace by_shard i
            ((key, value) :: Option.value ~default:[] (Hashtbl.find_opt by_shard i)))
        bindings;
      let ids = Hashtbl.fold (fun i _ acc -> i :: acc) by_shard [] in
      let single i =
        Engine.with_tx (Shard.engine t.shard i) (fun tx ->
            List.iter
              (fun (key, value) -> Kv.put_tx tx t.stores.(i) key value)
              (List.rev (Hashtbl.find by_shard i)))
      in
      let cross with_cross_tx =
        with_cross_tx (fun tx_of ->
            List.iter
              (fun i ->
                let tx = tx_of i in
                List.iter
                  (fun (key, value) -> Kv.put_tx tx t.stores.(i) key value)
                  (List.rev (Hashtbl.find by_shard i)))
              (List.sort compare ids))
      in
      (match (ids, router) with
      | [ i ], None -> single i
      | [ i ], Some r -> Shard_router.exclusive r ~from [ i ] (fun () -> single i)
      | _, None -> cross (Shard.with_cross_tx t.shard ids)
      | _, Some r -> cross (Shard_router.with_cross_tx r ~from ids))

let validate t =
  let rec go i =
    if i >= Array.length t.stores then Ok ()
    else
      match Kv.validate t.stores.(i) with
      | Ok () -> go (i + 1)
      | Error e -> Error (Printf.sprintf "shard %d: %s" i e)
  in
  go 0
