(* Percentiles and medians over raw samples. Ranks are computed in integer
   per-mille, so p99.9 of 1000 samples is exactly the 999th value and no
   float rounding can move a modelled percentile between runs. *)

(* [nearest_rank sorted permille] is the smallest sample with at least
   [permille]/1000 of the samples at or below it; [sorted] ascends. *)
let nearest_rank sorted permille =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let rank = ((permille * n) + 999) / 1000 in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* Sorted copy of the samples [a.(i)] for which [keep i] holds. *)
let sorted_where a keep =
  let n = ref 0 in
  Array.iteri (fun i _ -> if keep i then incr n) a;
  let out = Array.make !n 0 in
  let j = ref 0 in
  Array.iteri
    (fun i v ->
      if keep i then begin
        out.(!j) <- v;
        incr j
      end)
    a;
  Array.sort compare out;
  out

let sorted a = sorted_where a (fun _ -> true)

(* Median of floats: the mean of the two middle values for an even count. *)
let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0.0 then 0.0 else a /. b

let per a n = ratio (float_of_int a) (float_of_int n)
