(* Cross-domain coordination for the parallel shard driver (DESIGN.md §13).

   Ownership model: every shard engine is single-owner — the executor
   domain running the shard's lane is its only mutator, so the hot path
   takes no locks at all. Cross-shard work (the persistent-marker 2PC
   behind [Shard_kv.multi_put], or any transaction on a foreign shard)
   needs one domain to drive several engines at once. The router makes
   that safe by *leasing* host domains: the coordinator sends a [park]
   message to each foreign host's mailbox; the host answers at a safe
   point — between its own operations, no transaction active — by
   acking and spinning until released; the coordinator then drives the
   parked domains' engines directly through the ordinary [Shard] API and
   releases them. The mailbox and park atomics carry the happens-before
   edges in both directions, so the engine state itself needs no
   synchronization.

   Deadlock freedom: every leasing operation first takes the single
   [cross] lock (the persistent commit marker is one record, so
   cross-shard commits are mutually exclusive anyway), making the
   coordinator unique; and every spin loop that can precede an ack —
   lock acquisition in particular — keeps servicing the spinner's own
   mailbox, so the unique coordinator's parks are always answered:
   a would-be coordinator waiting for the lock parks and resumes
   waiting, an executor parks at its next service point, and a drained
   executor parks from its retire loop. *)

module Engine = Kamino_core.Engine

type park = { ack : bool Atomic.t; release : bool Atomic.t }

type t = {
  shard : Shard.t;
  mutable domains : int;  (* executor domains of the active run *)
  host_of : int array;  (* shard id -> executor domain slot *)
  inboxes : park Mailbox.t array;  (* indexed by domain slot *)
  cross : bool Atomic.t;  (* the single-coordinator lock *)
  parks : int Atomic.t;  (* parks in flight: the service fast path *)
  crossed : int Atomic.t;  (* leased operations completed *)
  (* Fast-path accounting: plain ints — exact only when the router runs on
     a single domain, which is all the regression tests need. *)
  mutable service_calls : int;
  mutable service_loads : int;  (* atomic loads of the [parks] gate *)
  mutable service_drains : int;  (* slow-path entries (gate saw parks) *)
}

let create shard =
  let n = Shard.shards shard in
  {
    shard;
    domains = 1;
    host_of = Array.make n 0;
    inboxes = Array.init n (fun _ -> Mailbox.create ~capacity:16);
    cross = Atomic.make false;
    parks = Atomic.make 0;
    crossed = Atomic.make 0;
    service_calls = 0;
    service_loads = 0;
    service_drains = 0;
  }

let shard t = t.shard

let crossed t = Atomic.get t.crossed

let service_calls t = t.service_calls

let service_loads t = t.service_loads

let service_drains t = t.service_drains

(* Round-robin shard -> domain placement; must mirror the driver's lane
   grouping exactly or a lease would park the wrong executor. *)
let attach t ~domains =
  let shards = Array.length t.host_of in
  let nd = max 1 (min domains shards) in
  t.domains <- nd;
  Array.iteri (fun i _ -> t.host_of.(i) <- i mod nd) t.host_of

(* Answer pending parks addressed to [domain]. Called by the executor
   between operations and from every wait loop; the common case is one
   atomic load ([parks] = 0). A parked executor holds no transaction, so
   the coordinator may drive its engines until [release]. *)
(* Every read of the [parks] gate goes through here so the lease-free
   cost — exactly one atomic load per [service] call — stays measurable. *)
let gate t =
  t.service_loads <- t.service_loads + 1;
  Atomic.get t.parks

let service t ~domain =
  t.service_calls <- t.service_calls + 1;
  if gate t > 0 then begin
    t.service_drains <- t.service_drains + 1;
    let rec drain () =
      match Mailbox.try_recv t.inboxes.(domain) with
      | None -> ()
      | Some p ->
          Atomic.set p.ack true;
          while not (Atomic.get p.release) do
            Domain.cpu_relax ()
          done;
          drain ()
    in
    drain ()
  end

let with_lock t ~domain f =
  while not (Atomic.compare_and_set t.cross false true) do
    (* The current holder may want to lease *us*; answering here is what
       makes the ack waits below deadlock-free. *)
    service t ~domain;
    Domain.cpu_relax ()
  done;
  Fun.protect ~finally:(fun () -> Atomic.set t.cross false) f

let lease t hosts f =
  let parked =
    List.map
      (fun h ->
        let p = { ack = Atomic.make false; release = Atomic.make false } in
        Atomic.incr t.parks;
        Mailbox.send t.inboxes.(h) p;
        (* We hold [cross], so nobody can be leasing us back: a plain
           spin suffices — the host acks at its next service point. *)
        while not (Atomic.get p.ack) do
          Domain.cpu_relax ()
        done;
        p)
      hosts
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p ->
          Atomic.set p.release true;
          Atomic.decr t.parks)
        parked)
    f

let exclusive t ~from ids f =
  (match ids with
  | [] -> invalid_arg "Shard_router.exclusive: no shards"
  | _ ->
      List.iter
        (fun i ->
          if i < 0 || i >= Array.length t.host_of then
            invalid_arg (Printf.sprintf "Shard_router.exclusive: no shard %d" i))
        ids);
  let domain = t.host_of.(from) in
  let hosts =
    List.sort_uniq compare
      (List.filter_map
         (fun i -> if t.host_of.(i) = domain then None else Some (t.host_of.(i)))
         ids)
  in
  (* Entirely home-domain and no marker involved: the executor already
     owns every engine it will touch — run lock-free. The multi-shard
     case always locks, foreign hosts or not, because the commit marker
     is a single shared record. *)
  if hosts = [] && match ids with [ _ ] -> true | _ -> false then f ()
  else
    with_lock t ~domain (fun () ->
        lease t hosts (fun () ->
            let v = f () in
            Atomic.incr t.crossed;
            v))

let with_cross_tx t ~from ids f =
  exclusive t ~from ids (fun () -> Shard.with_cross_tx t.shard ids f)
