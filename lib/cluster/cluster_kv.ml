(* Closed-loop client façade over {!Cluster}: each call schedules the
   operation one tick after the current virtual time and drains the shared
   simulation, so callers (CLI walkthrough, benches, unit tests) get plain
   synchronous KV semantics while every write still traverses the full
   chain / 2PC machinery. *)

module Sim = Kamino_sim.Engine
module Clock = Kamino_sim.Clock
module Engine = Kamino_core.Engine
module Kv = Kamino_kv.Kv
module Async = Kamino_chain.Async_chain
module Op = Kamino_chain.Op

type t = { c : Cluster.t }

let create c = { c }

let next_at t = Sim.now (Cluster.sim t.c) + 1

let drive t op =
  let done_at = ref None in
  Cluster.submit t.c ~at:(next_at t) op ~on_complete:(fun at ->
      done_at := Some at);
  ignore (Cluster.run t.c);
  match !done_at with
  | Some at -> at
  | None -> failwith "Cluster_kv: the write never completed"

let put t k v = ignore (drive t (Op.Put (k, v)))

let multi_put t bindings =
  let done_at = ref None in
  Cluster.multi_put t.c ~at:(next_at t) bindings ~on_complete:(fun at ->
      done_at := Some at);
  ignore (Cluster.run t.c);
  if !done_at = None then failwith "Cluster_kv: the multi_put never completed"

let get t k =
  let result = ref None in
  Cluster.read t.c ~at:(next_at t) k ~on_result:(fun v _ -> result := Some v);
  ignore (Cluster.run t.c);
  match !result with
  | Some v -> v
  | None -> failwith "Cluster_kv: the read never completed"

(* A snapshot read against the owning chain's head (the replica with the
   backup image). A head whose chain is wedged under a prepared cluster
   transaction, or whose promotion has not built a backup yet, cannot
   serve snapshots — fall back to an ordinary tail read. *)
let snapshot_get ?clock t k =
  let s = Cluster.route t.c k in
  let ch = Cluster.chain t.c s in
  let head = Async.head_id ch in
  if
    Async.cluster_held ch
    || Engine.snapshot_watermark (Async.engine_at ch head) = None
  then get t k
  else Kv.snapshot_get ?clock (Async.kv_at ch head) k
