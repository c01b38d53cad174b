type t = {
  queue : (unit -> unit) Pqueue.t;
  mutable now : int;
  mutable events : int;
  mutable boundary_hook : (unit -> unit) option;
}

let create () = { queue = Pqueue.create (); now = 0; events = 0; boundary_hook = None }

let now t = t.now

let events_executed t = t.events

let set_boundary_hook t hook = t.boundary_hook <- hook

let schedule t ~at f =
  let at = max at t.now in
  Pqueue.push t.queue at f

let schedule_after t ~delay f = schedule t ~at:(t.now + delay) f

let step t =
  match Pqueue.pop t.queue with
  | None -> false
  | Some (at, f) ->
      t.now <- max t.now at;
      f ();
      t.events <- t.events + 1;
      (match t.boundary_hook with Some hook -> hook () | None -> ());
      true

let run t =
  let n = ref 0 in
  while step t do
    incr n
  done;
  !n

let run_until t ~deadline =
  let n = ref 0 in
  let continue = ref true in
  while !continue do
    match Pqueue.peek t.queue with
    | Some (at, _) when at <= deadline ->
        ignore (step t);
        incr n
    | _ -> continue := false
  done;
  !n

let pending t = Pqueue.length t.queue
