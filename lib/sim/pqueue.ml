type 'a entry = { prio : int; seq : int; value : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { data = [||]; size = 0; next_seq = 0 }

let length q = q.size

(* [a] orders before [b] when its priority is smaller, or on equal priority
   when it was inserted earlier. *)
let before a b = a.prio < b.prio || (a.prio = b.prio && a.seq < b.seq)

let grow q =
  let cap = Array.length q.data in
  let ncap = if cap = 0 then 16 else cap * 2 in
  (* The dummy element for padding is never read past [q.size]. *)
  let dummy = q.data.(0) in
  let ndata = Array.make ncap dummy in
  Array.blit q.data 0 ndata 0 q.size;
  q.data <- ndata

let push q prio value =
  let e = { prio; seq = q.next_seq; value } in
  q.next_seq <- q.next_seq + 1;
  if q.size = 0 && Array.length q.data = 0 then q.data <- Array.make 16 e;
  if q.size = Array.length q.data then grow q;
  q.data.(q.size) <- e;
  q.size <- q.size + 1;
  (* Sift up. *)
  let i = ref (q.size - 1) in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    before q.data.(!i) q.data.(parent)
  do
    let parent = (!i - 1) / 2 in
    let tmp = q.data.(!i) in
    q.data.(!i) <- q.data.(parent);
    q.data.(parent) <- tmp;
    i := parent
  done

let sift_down q =
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < q.size && before q.data.(l) q.data.(!smallest) then smallest := l;
    if r < q.size && before q.data.(r) q.data.(!smallest) then smallest := r;
    if !smallest <> !i then begin
      let tmp = q.data.(!i) in
      q.data.(!i) <- q.data.(!smallest);
      q.data.(!smallest) <- tmp;
      i := !smallest
    end
    else continue := false
  done

let pop q =
  if q.size = 0 then None
  else begin
    let top = q.data.(0) in
    q.size <- q.size - 1;
    if q.size > 0 then begin
      q.data.(0) <- q.data.(q.size);
      sift_down q
    end;
    Some (top.prio, top.value)
  end

let peek q = if q.size = 0 then None else Some (q.data.(0).prio, q.data.(0).value)
