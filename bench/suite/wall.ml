(* The suite's own wall clock. [Unix.gettimeofday] can step backwards under
   NTP slews, so readings are clamped to be non-decreasing and every
   interval is >= 0. Kept here, not shared with the other benches, so they
   can change without moving this benchmark. *)

let last = ref neg_infinity

let now () =
  let t = Unix.gettimeofday () in
  if t > !last then last := t;
  !last

let since t0 = now () -. t0

(* [timed f] runs [f] and returns its result with the wall seconds taken. *)
let timed f =
  let t0 = now () in
  let v = f () in
  (v, since t0)
