type t = { region : Region.t; entry_words : int; max_entries : int }

let flag_off = 0
let count_off = 8
let entries_off = 16
let structure = "Commit_marker"

let create ~cost ~crash_mode ~seed ~clock ~entry_words ~max_entries =
  if entry_words < 1 || max_entries < 0 then
    invalid_arg "Commit_marker.create: need entry_words >= 1 and max_entries >= 0";
  let need = entries_off + (8 * entry_words * max_entries) in
  let region =
    Region.create ~cost ~crash_mode
      ~rng:(Kamino_sim.Rng.create (seed lxor 0x5bd1))
      ~clock ~size:((need + 4095) / 4096 * 4096) ()
  in
  { region; entry_words; max_entries }

let region t = t.region

let word_off t k j = entries_off + (8 * ((t.entry_words * k) + j))

let write t n word =
  if n < 0 || n > t.max_entries then
    invalid_arg (Printf.sprintf "Commit_marker.write: %d entries outside 0..%d" n t.max_entries);
  let m = t.region in
  Region.write_int m count_off n;
  for k = 0 to n - 1 do
    for j = 0 to t.entry_words - 1 do
      Region.write_int m (word_off t k j) (word k j)
    done
  done;
  Region.flush m count_off (8 + (8 * t.entry_words * n));
  Region.fence m;
  (* The commit point: the valid flag becomes durable strictly after the
     entries it covers. *)
  Region.write_int m flag_off 1;
  Region.flush m flag_off 8;
  Region.fence m

let clear t =
  Region.write_int t.region flag_off 0;
  Region.flush t.region flag_off 8;
  Region.fence t.region

let read t =
  let m = t.region in
  match Region.read_int m flag_off with
  | 0 -> None
  | 1 ->
      let n = Region.read_int m count_off in
      if n < 0 || n > t.max_entries then
        Region.corrupt ~structure ~off:count_off "count %d outside 0..%d" n t.max_entries;
      Some
        (Array.init n (fun k -> Array.init t.entry_words (fun j -> Region.read_int m (word_off t k j))))
  | flag -> Region.corrupt ~structure ~off:flag_off "flag %d is neither 0 nor 1" flag
