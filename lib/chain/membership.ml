type view = { id : int; members : int list }

type t = {
  mutable view : view;
  (* The current view's neighbours, indexed by node id and built when the
     view is installed, so that a lookup allocates nothing. *)
  mutable pred : int option array;
  mutable succ : int option array;
  failure_timeout_ns : int;
  heartbeats : (int, int) Hashtbl.t;  (* node -> last heartbeat time *)
}

let set_view t view =
  let size = 1 + List.fold_left max (-1) view.members in
  let pred = Array.make size None and succ = Array.make size None in
  let rec link = function
    | a :: (b :: _ as rest) ->
        succ.(a) <- Some b;
        pred.(b) <- Some a;
        link rest
    | [ _ ] | [] -> ()
  in
  link view.members;
  t.view <- view;
  t.pred <- pred;
  t.succ <- succ

let check_id fn node =
  if node < 0 then invalid_arg (Printf.sprintf "Membership.%s: node id %d is negative" fn node)

let create ~members ~failure_timeout_ns =
  if members = [] then invalid_arg "Membership.create: empty chain";
  List.iter (check_id "create") members;
  let t =
    {
      view = { id = 1; members };
      pred = [||];
      succ = [||];
      failure_timeout_ns;
      heartbeats = Hashtbl.create 8;
    }
  in
  set_view t t.view;
  t

let current t = t.view

let validate t ~view_id = if view_id = t.view.id then `Current else `Stale t.view

let install t members =
  set_view t { id = t.view.id + 1; members };
  t.view

let remove t node =
  if not (List.mem node t.view.members) then
    invalid_arg (Printf.sprintf "Membership.remove: node %d is not a member" node);
  Hashtbl.remove t.heartbeats node;
  install t (List.filter (fun m -> m <> node) t.view.members)

let add_tail t node =
  if List.mem node t.view.members then
    invalid_arg (Printf.sprintf "Membership.add_tail: node %d is already a member" node);
  check_id "add_tail" node;
  install t (t.view.members @ [ node ])

let lookup table node = if node >= 0 && node < Array.length table then table.(node) else None

let predecessor t node = lookup t.pred node

let successor t node = lookup t.succ node

let rejoin t ~node ~believed_view =
  ignore believed_view;
  (* Whether or not the believed view is stale, the answer is the current
     view; what matters is whether the node survived the detector. *)
  if List.mem node t.view.members then
    `Member (t.view, predecessor t node, successor t node)
  else `Removed t.view

let is_head t node = match t.view.members with h :: _ -> h = node | [] -> false

let record_heartbeat t ~node ~now = Hashtbl.replace t.heartbeats node now

let suspects t ~now =
  List.filter
    (fun node ->
      match Hashtbl.find_opt t.heartbeats node with
      | Some last -> now - last > t.failure_timeout_ns
      | None -> false (* never heard from: not yet monitored *))
    t.view.members
