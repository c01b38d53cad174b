module Rng = Kamino_sim.Rng

type t = {
  n : int;
  theta : float;
  alpha : float;
  zetan : float;
  eta : float;
  half_pow_theta : float;
}

let zeta n theta =
  let acc = ref 0.0 in
  for i = 1 to n do
    acc := !acc +. (1.0 /. Float.pow (float_of_int i) theta)
  done;
  !acc

let create ~n ~theta =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  if theta <= 0.0 || theta >= 1.0 then invalid_arg "Zipf.create: theta must be in (0,1)";
  let zetan = zeta n theta in
  let zeta2 = zeta 2 theta in
  {
    n;
    theta;
    alpha = 1.0 /. (1.0 -. theta);
    zetan;
    eta =
      (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. theta)) /. (1.0 -. (zeta2 /. zetan));
    half_pow_theta = 1.0 +. Float.pow 0.5 theta;
  }

let sample t rng =
  let u = Rng.float rng in
  let uz = u *. t.zetan in
  if uz < 1.0 then 0
  else if uz < t.half_pow_theta then 1
  else begin
    let rank =
      int_of_float
        (float_of_int t.n *. Float.pow ((t.eta *. u) -. t.eta +. 1.0) t.alpha)
    in
    if rank >= t.n then t.n - 1 else if rank < 0 then 0 else rank
  end

(* Fibonacci-style 64-bit hash to scatter ranks over the key space. *)
let scramble n rank =
  let z = Int64.mul (Int64.of_int (rank + 1)) 0x9E3779B97F4A7C15L in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int (Int64.logand z 0x3FFFFFFFFFFFFFFFL) mod n

let sample_scrambled t rng = scramble t.n (sample t rng)
