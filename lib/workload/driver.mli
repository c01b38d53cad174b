(** Multi-client virtual-time workload driver.

    Models the paper's N-thread clients over the deterministic simulation:
    each client has its own {!Kamino_sim.Clock}; operations execute
    serially at the data level in virtual-time order (always the client
    whose clock is furthest behind runs next), and contention surfaces as
    lock waits that push a client's clock forward. Throughput is
    [total_ops / max client end-time]; per-operation latencies feed one
    histogram per op label. *)

type result = {
  total_ops : int;
  elapsed_ns : int;  (** latest client clock at the end *)
  throughput_mops : float;  (** million ops per simulated second *)
  mean_latency_ns : float;
  latencies : (string * Kamino_obs.Metrics.hist) list;  (** sorted by op label *)
}

(** [run ~engine ~clients ~total_ops ~step] executes [total_ops] operations
    round-robin-by-virtual-time over [clients] clients. [step ~client ()]
    must execute exactly one operation against [engine] (whose active clock
    the driver has already switched to the client's) and return the
    operation's label. *)
val run :
  engine:Kamino_core.Engine.t ->
  clients:int ->
  total_ops:int ->
  step:(client:int -> unit -> string) ->
  result

(** [result_of ~total_ops ~elapsed_ns latencies] builds a result from a
    registry holding one histogram per op label; the mean latency is
    taken over every histogram. *)
val result_of : total_ops:int -> elapsed_ns:int -> Kamino_obs.Metrics.t -> result

(** [latency_of result label] — the histogram for one op label, if any
    ops of that label ran. *)
val latency_of : result -> string -> Kamino_obs.Metrics.hist option

val pp_result : Format.formatter -> result -> unit
