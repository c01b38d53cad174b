type counter = { mutable count : int }

type hist = {
  buckets : int array; (* [n_buckets] slots, indexed by [index 0 v] *)
  mutable n : int;
  mutable total : int;
  mutable hmax : int;
}

type t = {
  mutable counters : (string * counter) list;
  mutable hists : (string * hist) list;
}

(* Registries hold a handful of entries resolved at setup time, so a
   sorted assoc list beats a Hashtbl for determinism and simplicity. *)

let create () = { counters = []; hists = [] }

let counter t name =
  match List.assoc_opt name t.counters with
  | Some c -> c
  | None ->
      let c = { count = 0 } in
      t.counters <- (name, c) :: t.counters;
      c

let incr c = c.count <- c.count + 1
let add c n = c.count <- c.count + n
let set c n = c.count <- n
let value c = c.count

(* Log-linear buckets, 32 per octave: 0..63 map to themselves; above,
   [v] keeps its top 6 significant bits [m] (32..63) and is shifted
   right by [s], landing in bucket [s * 32 + m]. The largest int has 62
   bits, so [s <= 56] and the last bucket is [56 * 32 + 63]. *)
let n_buckets = 1856

let rec index s v = if v < 64 then (s * 32) + v else index (s + 1) (v lsr 1)

(* Largest value that lands in bucket [i]. *)
let upper i =
  if i < 64 then i
  else
    let s = (i / 32) - 1 in
    ((32 + (i mod 32)) lsl s) + ((1 lsl s) - 1)

let hist t name =
  match List.assoc_opt name t.hists with
  | Some h -> h
  | None ->
      let h = { buckets = Array.make n_buckets 0; n = 0; total = 0; hmax = 0 } in
      t.hists <- (name, h) :: t.hists;
      h

let observe h v =
  let v = if v < 0 then 0 else v in
  let i = index 0 v in
  h.buckets.(i) <- h.buckets.(i) + 1;
  h.n <- h.n + 1;
  h.total <- h.total + v;
  if v > h.hmax then h.hmax <- v

let merge ~into h =
  Array.iteri (fun i c -> into.buckets.(i) <- into.buckets.(i) + c) h.buckets;
  into.n <- into.n + h.n;
  into.total <- into.total + h.total;
  if h.hmax > into.hmax then into.hmax <- h.hmax

let count h = h.n
let sum h = h.total
let max_value h = h.hmax
let mean h = if h.n = 0 then 0. else float_of_int h.total /. float_of_int h.n

let percentile h p =
  if h.n = 0 then 0
  else begin
    let rank =
      let r = int_of_float (ceil (p /. 100. *. float_of_int h.n)) in
      if r < 1 then 1 else if r > h.n then h.n else r
    in
    let i = ref 0 in
    let seen = ref 0 in
    while !seen < rank && !i < n_buckets do
      seen := !seen + h.buckets.(!i);
      if !seen < rank then i := !i + 1
    done;
    min (upper !i) h.hmax
  end

let percentiles h ps = Array.map (fun p -> percentile h p) ps

let by_name l = List.sort (fun (a, _) (b, _) -> compare a b) l

let fold_counters t ~init ~f =
  List.fold_left (fun acc (name, c) -> f acc name c.count) init
    (by_name t.counters)

let fold_hists t ~init ~f =
  List.fold_left (fun acc (name, h) -> f acc name h) init (by_name t.hists)
