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

(* [multi_put] is the cross-shard client: all bindings become visible
   atomically even when their keys route to different shards. The
   single-shard case degenerates to one plain transaction — no marker,
   no 2PC. *)
let multi_put t bindings =
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
      let puts tx i =
        List.iter
          (fun (key, value) -> Kv.put_tx tx t.stores.(i) key value)
          (List.rev (Hashtbl.find by_shard i))
      in
      match ids with
      | [ i ] -> Engine.with_tx (Shard.engine t.shard i) (fun tx -> puts tx i)
      | _ ->
          Shard.with_cross_tx t.shard ids (fun tx_of ->
              List.iter (fun i -> puts (tx_of i) i) (List.sort compare ids))

let validate t =
  let rec go i =
    if i >= Array.length t.stores then Ok ()
    else
      match Kv.validate t.stores.(i) with
      | Ok () -> go (i + 1)
      | Error e -> Error (Printf.sprintf "shard %d: %s" i e)
  in
  go 0
