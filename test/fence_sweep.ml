(* Crash-point sweeps over {!Region.at_fence}: durability only changes at
   fences, so crashing at entry to each fence of an operation, in turn,
   visits every distinct crash state it has. Shared by the fs, crash
   matrix and shard suites. *)

module Region = Kamino_nvm.Region

exception Crashed

(* Where an armed crash landed. An operation that has returned is
   committed, so a crash in the [drain] after it must keep it. *)
type 'a outcome =
  | Crashed_in_op  (** the crash hit before [op] returned *)
  | Crashed_in_drain of 'a  (** [op] returned this, then the crash hit [drain] *)
  | Completed of 'a  (** [op] and [drain] finished without reaching the fence *)

(* [attempt ~crash n ?drain op] runs [op ()] then [drain ()] with fence
   [n] armed to call [crash] and raise [Crashed]. *)
let attempt ~crash n ?(drain = ignore) op =
  Region.at_fence n (fun () ->
      crash ();
      raise Crashed);
  let returned = ref None in
  match
    let v = op () in
    returned := Some v;
    drain ();
    v
  with
  | v ->
      Region.disarm_fence ();
      Completed v
  | exception Crashed -> (
      match !returned with None -> Crashed_in_op | Some v -> Crashed_in_drain v)
  | exception e ->
      Region.disarm_fence ();
      raise e

(* Recovery that is itself interrupted: attempt [j] crashes at recovery
   fence [j], so each restart gets one fence further than the last until
   a recovery completes. Returns how many recoveries crashed. *)
let recover_chained ~crash ~recover =
  let rec go j =
    match attempt ~crash j recover with Completed () -> j | _ -> go (j + 1)
  in
  go 0

type stats = {
  points : int;  (** crash points of the operation: fences before it completed *)
  after : int;  (** crash points that recovered to the after-state *)
  committed : int;  (** crash points in [drain], after [op] had returned *)
  recovery_points : int;  (** recovery crashes, summed over every point *)
}

(* The sweep. For [n = 0, 1, ...]: rebuild the same seeded state with
   [setup], crash at fence [n] of [op] and then [drain] (the applier
   drain), recover with chained crashes inside recovery, run [check]
   (fsck, backup invariants, ...), and require the [observe]d state to be
   exactly the before- or after-state — after-states monotone in [n], and
   the after-state at every crash point at which [op] had already
   returned. The sweep ends at the first [n] whose [op] and [drain]
   complete; that run also crashes and recovers once more and must show
   the after-state. [on_crash s n] runs extra per-point oracles after the
   state checks, at every point, the completed run's included. [expect]
   is a model's [(before, after)]: the reference run must show exactly
   those states. *)
let sweep ~ctx ~setup ~crash ~recover ~op ~drain ~observe ~check
    ?(on_crash = fun _ _ -> ()) ?expect () =
  let reference = setup () in
  let before = observe reference in
  op reference;
  drain reference;
  let after = observe reference in
  Option.iter
    (fun (want_before, want_after) ->
      if before <> want_before then
        Alcotest.failf "%s: the before-state is not the model's:\n%s\nmodel:\n%s" ctx before
          want_before;
      if after <> want_after then
        Alcotest.failf "%s: the after-state is not the model's:\n%s\nmodel:\n%s" ctx after
          want_after)
    expect;
  if after = before then Alcotest.failf "%s: the operation changes nothing" ctx;
  let recovery_points = ref 0 and afters = ref 0 and committed = ref 0 in
  let rec go n =
    if n > 5000 then Alcotest.failf "%s: operation never completes" ctx;
    let s = setup () in
    let outcome =
      attempt ~crash:(fun () -> crash s) n ~drain:(fun () -> drain s) (fun () -> op s)
    in
    (match outcome with
    | Completed () -> crash s
    | Crashed_in_drain () -> incr committed
    | Crashed_in_op -> ());
    recovery_points :=
      !recovery_points + recover_chained ~crash:(fun () -> crash s) ~recover:(fun () -> recover s);
    let here = Printf.sprintf "%s, crash at fence %d" ctx n in
    check s here;
    let v = observe s in
    if v = after then incr afters
    else if outcome <> Crashed_in_op then
      Alcotest.failf "%s: committed operation lost:\n%s" here v
    else if v <> before then
      Alcotest.failf "%s: recovered to neither the before- nor the after-state:\n%s" here v
    else if !afters > 0 then Alcotest.failf "%s: rolled back after an earlier roll-forward" here;
    on_crash s n;
    match outcome with Completed () -> n | _ -> go (n + 1)
  in
  let points = go 0 in
  { points; after = !afters - 1; committed = !committed; recovery_points = !recovery_points }

(* The shape a sweep of a transaction should have: some but not all of
   its crash points roll forward, and at least one crash lands inside a
   recovery. *)
let require_split ~ctx st =
  if st.after < 1 || st.after >= st.points then
    Alcotest.failf "%s: %d of %d crash points rolled forward; expected some but not all" ctx
      st.after st.points;
  if st.recovery_points = 0 then Alcotest.failf "%s: no crash point inside recovery" ctx
