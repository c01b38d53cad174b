(* The traced pass's collector.

   Two sources feed it. The bench itself records a span around every call
   it makes into a layer (one per operation, plus set-up, crash, recovery
   and oracle phases): sim start/end, wall start/end and the enclosing
   phase. And after every operation the engine's own event ring (attached
   through [Engine.create ~obs]) is digested and emptied, so no event is
   ever overwritten: lock waits split by cause, flush and fence spans,
   commits, intents, applier tasks and queue depth.

   Applier-track spans are off-path work: they count towards applier
   occupancy and never towards an operation's latency. A flush or fence
   counts towards an operation only when it lies inside the operation's
   interval on the client clock; lazy applier copies run on a scratch
   clock and fall outside it. *)

module Obs = Kamino_obs.Obs
module Sink = Kamino_obs.Sink

(* Growable int buffer. *)
module Ibuf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push b v =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- v;
    b.n <- b.n + 1

  let sorted b = Pct.sorted (Array.sub b.a 0 b.n)
end

(* Operations whose spans and engine events go to the Perfetto file. *)
let perfetto_ops = 5000

type span = {
  name : string;
  parent : int;  (* index of the enclosing phase span, -1 at top level *)
  sim0 : int;
  mutable sim1 : int;
  wall0 : float;
  mutable wall1 : float;
}

type t = {
  obs : Obs.t;  (* the engine's ring; the cluster attaches it nowhere *)
  perf : Obs.t;  (* copy of the first [perfetto_ops] operations' events *)
  classes : string array;
  class_wall : float array;
  class_calls : int array;
  mutable spans : span list;  (* newest first *)
  mutable n_spans : int;
  mutable phase : int;
  mutable ops : int;
  mutable events : int;
  mutable dropped : int;
  mutable dep_wait_ns : int;
  mutable cont_wait_ns : int;
  mutable wait_events : int;
  mutable flush_ns : int;
  mutable fence_ns : int;
  mutable intents : int;
  commit_ns : Ibuf.t;
  lag_ns : Ibuf.t;
  mutable applier_busy_ns : int;
  mutable queue_max : int;
  mutable free_slots_min : int;
  mutable full_ops : int;
  mutable op_sim_ns : int;
}

let create ~obs classes =
  {
    obs;
    perf = Obs.create ~capacity:(1 lsl 18) ();
    classes;
    class_wall = Array.make (Array.length classes) 0.0;
    class_calls = Array.make (Array.length classes) 0;
    spans = [];
    n_spans = 0;
    phase = -1;
    ops = 0;
    events = 0;
    dropped = 0;
    dep_wait_ns = 0;
    cont_wait_ns = 0;
    wait_events = 0;
    flush_ns = 0;
    fence_ns = 0;
    intents = 0;
    commit_ns = Ibuf.create ();
    lag_ns = Ibuf.create ();
    applier_busy_ns = 0;
    queue_max = 0;
    free_slots_min = max_int;
    full_ops = 0;
    op_sim_ns = 0;
  }

let obs p = p.obs

let add_span p s =
  p.spans <- s :: p.spans;
  p.n_spans <- p.n_spans + 1;
  p.n_spans - 1

(* Empty the engine ring after an operation, attributing the events that
   lie inside its interval [t0, t1]. *)
let drain p ~t0 ~t1 =
  if Obs.enabled p.obs then begin
    p.dropped <- p.dropped + Obs.dropped p.obs;
    let copy = p.ops < perfetto_ops && Obs.length p.perf < Obs.capacity p.perf in
    Obs.iter p.obs (fun ~kind ~track ~ts ~dur ~a ~b ~c ->
        p.events <- p.events + 1;
        if copy then Obs.emit p.perf ~kind ~track ~ts ~dur ~a ~b ~c;
        let inside = ts >= t0 && ts + dur <= t1 in
        if kind = Obs.k_lock_wait then begin
          p.wait_events <- p.wait_events + 1;
          if b = 1 then p.dep_wait_ns <- p.dep_wait_ns + dur
          else p.cont_wait_ns <- p.cont_wait_ns + dur
        end
        else if kind = Obs.k_flush then (if inside then p.flush_ns <- p.flush_ns + dur)
        else if kind = Obs.k_fence then (if inside then p.fence_ns <- p.fence_ns + dur)
        else if kind = Obs.k_commit then Ibuf.push p.commit_ns dur
        else if kind = Obs.k_intent then p.intents <- p.intents + 1
        else if kind = Obs.k_applier_task then begin
          p.applier_busy_ns <- p.applier_busy_ns + dur;
          Ibuf.push p.lag_ns (ts + dur - t1)
        end
        else if kind = Obs.k_queue_depth then p.queue_max <- max p.queue_max a);
    Obs.reset p.obs
  end

(* [phase p name ~now f] runs [f] as a named phase span: set-up, window,
   crash, recovery, oracle. Engine events a phase causes outside any
   operation (bulk load, recovery) are discarded unread: only the
   operations' events are analysed, and those are never dropped. *)
let phase p name ~now f =
  let parent = p.phase in
  let sim0 = now () and wall0 = Wall.now () in
  let s = { name; parent; sim0; sim1 = sim0; wall0; wall1 = wall0 } in
  p.phase <- add_span p s;
  let v = f () in
  if Obs.enabled p.obs then Obs.reset p.obs;
  p.phase <- parent;
  s.sim1 <- now ();
  s.wall1 <- Wall.now ();
  v

(* One completed operation of class [cls]: simulated [t0, t1] on its
   client's clock, wall [w0, w1] around the call. *)
let op p ~cls ~t0 ~t1 ~w0 ~w1 =
  p.class_wall.(cls) <- p.class_wall.(cls) +. (w1 -. w0);
  p.class_calls.(cls) <- p.class_calls.(cls) + 1;
  p.op_sim_ns <- p.op_sim_ns + (t1 - t0);
  if p.ops < perfetto_ops then
    ignore
      (add_span p
         { name = p.classes.(cls); parent = p.phase; sim0 = t0; sim1 = t1; wall0 = w0; wall1 = w1 });
  drain p ~t0 ~t1;
  p.ops <- p.ops + 1

(* Intent-log occupancy after an operation. *)
let free_slots p n =
  p.free_slots_min <- min p.free_slots_min n;
  if n = 0 then p.full_ops <- p.full_ops + 1

let wall_ns_per_call p cls =
  1e9 *. Pct.ratio p.class_wall.(cls) (float_of_int p.class_calls.(cls))

(* Per-layer metrics the ring and the spans give, over [ops] operations
   and [sim_ns] simulated window time. *)
let metrics p ~ops ~sim_ns =
  let commits = Ibuf.sorted p.commit_ns in
  let attributed = p.dep_wait_ns + p.cont_wait_ns + p.flush_ns + p.fence_ns in
  [
    ("engine.commit_sim_p50_ns", float_of_int (Pct.nearest_rank commits 500));
    ("engine.commit_sim_p99_ns", float_of_int (Pct.nearest_rank commits 990));
    ("engine.intents_per_tx", Pct.per p.intents (Array.length commits));
    ("locks.dependent_wait_ns_per_op", Pct.per p.dep_wait_ns ops);
    ("locks.contention_wait_ns_per_op", Pct.per p.cont_wait_ns ops);
    ("locks.wait_events_per_kop", 1000.0 *. Pct.per p.wait_events ops);
    ( "intent_log.free_slots_min",
      if p.free_slots_min = max_int then 0.0 else float_of_int p.free_slots_min );
    ("intent_log.full_ops", float_of_int p.full_ops);
    ("applier.busy_frac", Pct.per p.applier_busy_ns sim_ns);
    ("applier.lag_p99_ns", float_of_int (Pct.nearest_rank (Ibuf.sorted p.lag_ns) 990));
    ("applier.queue_max", float_of_int p.queue_max);
    ("nvm.flush_sim_ns_per_op", Pct.per p.flush_ns ops);
    ("nvm.fence_sim_ns_per_op", Pct.per p.fence_ns ops);
    ("layer.unattributed_sim_ns_per_op", Pct.per (p.op_sim_ns - attributed) ops);
    ("trace.events", float_of_int (p.events + p.n_spans));
    ("trace.dropped", float_of_int p.dropped);
  ]

(* Perfetto trace of the first [perfetto_ops] operations: the engine's
   events plus the bench spans on their own tracks, all on the simulated
   timeline. *)
let write_perfetto p path =
  List.iter (fun (id, name) -> Obs.name_track p.perf id name) (Obs.tracks p.obs);
  let engine = Sink.perfetto_string p.perf in
  let head = "{\"traceEvents\":[" in
  let hl = String.length head in
  assert (String.length engine >= hl && String.sub engine 0 hl = head);
  let rest = String.sub engine hl (String.length engine - hl) in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf head;
  let us ns = Printf.sprintf "%d.%03d" (ns / 1000) (ns mod 1000) in
  List.iter
    (fun (tid, name) ->
      Printf.bprintf buf
        "{\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":%S}},\n"
        tid name)
    [ (100, "bench.op"); (101, "bench.phase") ];
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string buf ",\n";
      Printf.bprintf buf
        "{\"name\":%S,\"cat\":\"bench\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"args\":{\"parent\":%d,\"wall_us\":%.3f}}"
        s.name
        (if s.parent < 0 then 101 else 100)
        (us s.sim0)
        (us (max 0 (s.sim1 - s.sim0)))
        s.parent
        ((s.wall1 -. s.wall0) *. 1e6))
    (List.rev p.spans);
  if String.length rest > 0 && rest.[0] <> ']' then Buffer.add_string buf ",\n";
  Buffer.add_string buf rest;
  Out_channel.with_open_text path (fun oc -> Buffer.output_buffer oc buf)
