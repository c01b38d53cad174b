(* A binary max-heap in a growable array: the children of slot [i] sit
   at [2i + 1] and [2i + 2], neither above it. The sifts are loops, not
   local recursive functions, which would allocate a closure per call. *)
type t = { mutable a : int array; mutable n : int }

let create () = { a = [||]; n = 0 }

let is_empty h = h.n = 0

let insert h v =
  if h.n = Array.length h.a then begin
    let grown = Array.make (max 16 (2 * h.n)) 0 in
    Array.blit h.a 0 grown 0 h.n;
    h.a <- grown
  end;
  let a = h.a and i = ref h.n in
  while !i > 0 && a.((!i - 1) / 2) < v do
    a.(!i) <- a.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  a.(!i) <- v;
  h.n <- h.n + 1

let pop_max h =
  if h.n = 0 then invalid_arg "Max_heap.pop_max: empty";
  let a = h.a and n = h.n - 1 in
  let top = a.(0) and v = a.(n) and i = ref 0 and sifting = ref (n > 0) in
  while !sifting do
    let l = (2 * !i) + 1 in
    let c = if l + 1 < n && a.(l + 1) > a.(l) then l + 1 else l in
    if l < n && a.(c) > v then begin
      a.(!i) <- a.(c);
      i := c
    end
    else sifting := false
  done;
  if n > 0 then a.(!i) <- v;
  h.n <- n;
  top

let to_list h = List.init h.n (Array.get h.a)
