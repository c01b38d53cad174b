type t = { mutable now : int }

let create () = { now = 0 }

let create_at ns = { now = ns }

let now t = t.now

let advance t ns =
  if ns < 0 then invalid_arg "Clock.advance: negative duration";
  t.now <- t.now + ns

let advance_to t ns =
  if ns > t.now then begin
    let wait = ns - t.now in
    t.now <- ns;
    wait
  end
  else 0
