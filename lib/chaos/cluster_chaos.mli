(** Deterministic fault-schedule explorer for the replicated chain and
    the shard-cluster (§5.2–§5.3). A {e schedule} is a list of faults
    addressed by the simulation's logical event counter ("after the Nth
    event"), injected through {!Kamino_sim.Engine.set_boundary_hook} while
    a seeded random workload streams through a {!Kamino_cluster.Cluster}:

    - quick reboots of any replica mid-propagation (including during the
      cleanup-ack cascade), with randomized downtime;
    - fail-stop removals with chain repair and — for a failed Kamino head —
      promotion of the next replica (its backup build is itself a separate,
      crashable event);
    - stale-view probes: messages stamped with an out-of-date view id that
      replicas must reject;
    - per-hop latency jitter (FIFO links preserved);
    - two {e targeted} kinds that arm on the cross-shard 2PC protocol
      steps themselves: [Prepare_head_fail] fail-stops a participant's
      head the moment that shard prepares (head promotion lands {e
      between} prepare and commit-marker persist), and [Marker_head_fail]
      fail-stops it the moment the marker persists (the decided
      transaction must be re-driven through the promoted head).

    One harness runs two {!campaign}s. The chain campaign is a 1-shard
    cluster, so its runs exercise one chain exactly as a bare
    {!Kamino_chain.Async_chain} would.

    Oracles: cluster quiescence; cluster atomicity (every cross-shard
    multi_put is all-or-nothing, and a decided one is applied on all
    participants); per-chain durable prefix (survivor agreement, no
    phantoms, acked implies applied, sequential replay, verified head
    backup); per-chain linearizability of completed reads. A per-chain
    failure is reported as [shard <s>: <oracle>: ...].

    Everything is deterministic from [(campaign, seed, ops, schedule)]:
    the same inputs reproduce a byte-identical history, verdict and
    fingerprint. *)

module Op = Kamino_chain.Op
module Async = Kamino_chain.Async_chain

(** The two campaigns. Each has its own seeded workload and schedule
    draws, so a seed names a different run in each.
    - [Chain_campaign mode]: 1 shard, f = 2, the given chain mode; single
      writes (put / append / delete) and reads over 12 keys, 40 ops by
      default. [kamino chaos] runs it.
    - [Cluster_campaign]: 3 shards, f = 1, Kamino chains; single writes,
      cross-shard multi_puts of 2-4 keys and reads over 16 keys, 30 ops
      by default, targeted 2PC faults included. [kamino cluster] runs
      it. *)
type campaign = Chain_campaign of Async.mode | Cluster_campaign

val shards : campaign -> int

val f : campaign -> int

val mode_name : Async.mode -> string

val mode_of_string : string -> Async.mode option

type fault =
  | Reboot of { shard : int; node : int; at_event : int; downtime_ns : int }
  | Fail_stop of { shard : int; node : int; at_event : int }
  | Stale_probe of { shard : int; node : int; at_event : int }
  | Hop_jitter of { shard : int; at_event : int; amplitude_ns : int }
  | Prepare_head_fail of { cross : int; shard : int }
      (** fail-stop shard [shard]'s head when multi_put number [cross]
          (0-based over the workload's multi_puts) reports it prepared *)
  | Marker_head_fail of { cross : int; shard : int }
      (** fail-stop shard [shard]'s head when that multi_put's commit
          marker persists *)

type outcome = {
  seed : int;
  ops : int;
  schedule : fault list;
  verdict : (unit, string) result;
  history : string;  (** rendered run record; byte-identical across replays *)
  events : int;  (** simulation events executed *)
  submitted : int;  (** single writes that reached a head *)
  acked : int;  (** single writes acknowledged to the client *)
  multis : int;
  multis_acked : int;
  crossed : int;  (** cross-chain transactions fully acknowledged *)
  redrives : int;  (** view-change re-drives of committed operations *)
  reads : int;
  stale_drops : int;  (** messages rejected by view validation, all chains *)
  survivors : int list list;  (** members of each shard's final view *)
  fingerprint : string Lazy.t;
      (** {!Kamino_cluster.Cluster.fingerprint} of the drained cluster:
          it digests every replica's NVM, which costs more than the run
          itself, so it is computed on demand *)
  p50_ns : int;  (** cluster commit latency percentiles, all commits *)
  p95_ns : int;
  p99_ns : int;
}

(** {1 Schedule serialization} — one fault per line, for replaying a
    failure from a CI artifact. *)

(** [kind k=v k=v...]; round-trips with {!schedule_of_string}. *)
val fault_to_string : fault -> string

val schedule_to_string : fault list -> string

(** Parses {!schedule_to_string} output; blank lines and [#] comments are
    ignored. A missing [shard=] on an event-indexed fault reads as 0, so
    single-chain schedules replay unchanged; the targeted kinds require
    it. Missing fields, non-integers and negative values are rejected
    with the line number. *)
val schedule_of_string : string -> (fault list, string) result

(** {1 Seeded draws} *)

type cmd =
  | Cwrite of Op.t
  | Cmulti of (int * string) list
  | Cread of int

(** The campaign's deterministic workload for [seed]: commands with
    strictly increasing submission times. *)
val gen_workload : campaign -> seed:int -> ops:int -> (int * cmd) list

(** Multi_put commands in a workload (the [multis] input of
    {!gen_schedule}). *)
val count_multis : (int * cmd) list -> int

(** The campaign's deterministic fault schedule for [seed]: [faults]
    draws at event indices in [\[1, events\]] over the campaign's shards
    and replicas, targeted 2PC faults included whenever the campaign has
    them and [multis] > 0. *)
val gen_schedule :
  campaign -> seed:int -> faults:int -> events:int -> multis:int -> fault list

(** {1 Running} *)

(** [run campaign ~seed ~ops ~schedule ()] builds a fresh cluster, replays
    seed [seed]'s workload under [schedule], drains the simulation and
    checks every oracle. A fault that is inapplicable when it fires (its
    node was removed, its chain is too short, its shard does not exist)
    is logged as skipped. [recovery_fault] deliberately breaks replica
    recovery — for validating that the oracles catch a broken protocol.
    [obs] (default {!Kamino_obs.Obs.null}) traces the run: chain hops,
    view changes and promotions, every node's engine events, plus one
    instant per {e applied} event-indexed fault on track 0 ([a] = 0
    reboot / 1 fail-stop / 2 stale probe / 3 jitter, [b] = node, [c] =
    the fault's event index). Tracing never perturbs the simulation:
    history and verdict are byte-identical with and without it. *)
val run :
  ?recovery_fault:Async.recovery_fault ->
  ?obs:Kamino_obs.Obs.t ->
  campaign ->
  seed:int ->
  ops:int ->
  schedule:fault list ->
  unit ->
  outcome

(** [explore campaign ~seed ()] — the front door: a fault-free dry run
    measures the workload's event count, a schedule is drawn over that
    range, and the faulted run is checked. Deterministic from
    [(campaign, seed, ops, faults)]; [ops] defaults to the campaign's,
    [faults] to 6. *)
val explore :
  ?recovery_fault:Async.recovery_fault ->
  ?obs:Kamino_obs.Obs.t ->
  ?ops:int ->
  ?faults:int ->
  campaign ->
  seed:int ->
  unit ->
  outcome

(** Greedy drop-one minimisation: faults are dropped one at a time while
    the run still fails an oracle. Returns [schedule] itself if it
    passes. *)
val shrink :
  ?recovery_fault:Async.recovery_fault ->
  campaign ->
  seed:int ->
  ops:int ->
  fault list ->
  fault list
