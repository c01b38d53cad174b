(* Bounded lock-free queue (Vyukov's array ring) used as the per-domain
   mailbox of the shard router. Senders are coordinator domains, the
   receiver is the owning executor domain; both sides take one CAS per
   operation in the common case. The per-cell sequence atomics do double
   duty: they arbitrate slot ownership and they carry the happens-before
   edge that makes the plain [value] field safely readable on the other
   side (release store after the write, acquire load before the read —
   OCaml [Atomic] operations are sequentially consistent, which is
   stronger than either). *)

type 'a cell = { mutable value : 'a option; seq : int Atomic.t }

type 'a t = {
  mask : int;
  cells : 'a cell array;
  enq : int Atomic.t;  (* next ticket to enqueue *)
  deq : int Atomic.t;  (* next ticket to dequeue *)
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Mailbox.create: capacity must be positive";
  (* Minimum 2 cells: with a single cell the post-send sequence equals the
     next enqueue ticket, so the full test [dif < 0] never trips and a
     second send would overwrite the unconsumed slot. *)
  let cap =
    let c = ref 2 in
    while !c < capacity do
      c := !c * 2
    done;
    !c
  in
  {
    mask = cap - 1;
    cells = Array.init cap (fun i -> { value = None; seq = Atomic.make i });
    enq = Atomic.make 0;
    deq = Atomic.make 0;
  }

let capacity t = Array.length t.cells

(* A cell is writable when its sequence equals the enqueue ticket, and
   readable when it equals the ticket + 1; anything lower means the ring
   wrapped onto an unconsumed slot (full) or an unproduced one (empty). *)
let try_send t v =
  let rec go () =
    let pos = Atomic.get t.enq in
    let cell = t.cells.(pos land t.mask) in
    let dif = Atomic.get cell.seq - pos in
    if dif = 0 then
      if Atomic.compare_and_set t.enq pos (pos + 1) then begin
        cell.value <- Some v;
        Atomic.set cell.seq (pos + 1);
        true
      end
      else go ()
    else if dif < 0 then false
    else go ()
  in
  go ()

let try_recv t =
  let rec go () =
    let pos = Atomic.get t.deq in
    let cell = t.cells.(pos land t.mask) in
    let dif = Atomic.get cell.seq - (pos + 1) in
    if dif = 0 then
      if Atomic.compare_and_set t.deq pos (pos + 1) then begin
        let v = cell.value in
        cell.value <- None;
        Atomic.set cell.seq (pos + t.mask + 1);
        v
      end
      else go ()
    else if dif < 0 then None
    else go ()
  in
  go ()

let send t v =
  while not (try_send t v) do
    Domain.cpu_relax ()
  done
