module Rng = Kamino_sim.Rng

type workload = A | B | C | D | E | F

let workload_of_string s =
  match String.lowercase_ascii s with
  | "a" -> Some A
  | "b" -> Some B
  | "c" -> Some C
  | "d" -> Some D
  | "e" -> Some E
  | "f" -> Some F
  | _ -> None

let name = function A -> "A" | B -> "B" | C -> "C" | D -> "D" | E -> "E" | F -> "F"

type op = Read of int | Update of int | Insert of int | Scan of int * int | Rmw of int

type t = {
  workload : workload;
  zipf : Zipf.t option;  (* [None] = uniform key choice *)
  record_count : int;
  mutable inserted : int;  (* total key-space size including loaded records *)
}

let create ?(uniform = false) workload ~record_count ~theta =
  if record_count <= 0 then invalid_arg "Ycsb.create: record_count must be positive";
  {
    workload;
    zipf = (if uniform then None else Some (Zipf.create ~n:record_count ~theta));
    record_count;
    inserted = record_count;
  }

let key_space t = t.inserted

(* Zipfian choice over the loaded records, scattered — or uniform when the
   generator was created with [~uniform:true] (the distribution ablation;
   also the only option for theta outside Zipf's (0,1) domain). *)
let zipf_key t rng =
  match t.zipf with
  | Some z -> Zipf.sample_scrambled z rng
  | None -> Rng.int rng t.record_count

(* "Latest" distribution: zipfian over recency — rank 0 is the most
   recently inserted key. *)
let latest_key t rng =
  let rank =
    match t.zipf with
    | Some z -> Zipf.sample z rng
    | None -> Rng.int rng t.record_count
  in
  let k = t.inserted - 1 - rank in
  if k < 0 then 0 else k

let next t rng =
  let pct = Rng.int rng 100 in
  match t.workload with
  | A -> if pct < 50 then Read (zipf_key t rng) else Update (zipf_key t rng)
  | B -> if pct < 95 then Read (zipf_key t rng) else Update (zipf_key t rng)
  | C -> Read (zipf_key t rng)
  | D ->
      if pct < 95 then Read (latest_key t rng)
      else begin
        let k = t.inserted in
        t.inserted <- t.inserted + 1;
        Insert k
      end
  | E ->
      if pct < 95 then Scan (zipf_key t rng, 1 + Rng.int rng 100)
      else begin
        let k = t.inserted in
        t.inserted <- t.inserted + 1;
        Insert k
      end
  | F -> if pct < 50 then Read (zipf_key t rng) else Rmw (zipf_key t rng)

let op_name = function
  | Read _ -> "read"
  | Update _ -> "update"
  | Insert _ -> "insert"
  | Scan _ -> "scan"
  | Rmw _ -> "rmw"
