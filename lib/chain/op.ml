module Kv = Kamino_kv.Kv

type t =
  | Put of int * string
  | Delete of int
  | Append of int * string
  | Batch of t list

let rec apply_tx tx op kv =
  match op with
  | Put (k, v) -> Kv.put_tx tx kv k v
  | Delete k -> ignore (Kv.delete_tx tx kv k)
  | Append (k, suffix) -> Kv.rmw_tx tx kv k (fun v -> v ^ suffix)
  | Batch ops -> List.iter (fun sub -> apply_tx tx sub kv) ops

let apply op kv =
  Kamino_core.Engine.with_tx (Kv.engine kv) (fun tx -> apply_tx tx op kv)

let rec encoded_size = function
  | Put (_, v) | Append (_, v) -> 17 + String.length v
  | Delete _ -> 9
  | Batch ops -> List.fold_left (fun acc sub -> acc + 8 + encoded_size sub) 9 ops

let add_int buf n = Buffer.add_int64_le buf (Int64.of_int n)

let add_payload buf tag k v =
  Buffer.add_char buf tag;
  add_int buf k;
  add_int buf (String.length v);
  Buffer.add_string buf v

let rec add_encoded buf = function
  | Put (k, v) -> add_payload buf 'P' k v
  | Delete k ->
      Buffer.add_char buf 'D';
      add_int buf k
  | Append (k, v) -> add_payload buf 'A' k v
  | Batch ops ->
      Buffer.add_char buf 'B';
      add_int buf (List.length ops);
      List.iter
        (fun sub ->
          add_int buf (encoded_size sub);
          add_encoded buf sub)
        ops

let encode op =
  let buf = Buffer.create (encoded_size op) in
  add_encoded buf op;
  Buffer.contents buf

(* [off] is the failing field's position in the buffer. *)
let fail off what = Kamino_nvm.Region.corrupt ~structure:"Op" ~off "%s" what

let int_at b off = Int64.to_int (Bytes.get_int64_le b off)

let value_at b pos len =
  if len < 17 then fail pos "no value length word";
  let n = int_at b (pos + 9) in
  if n < 0 || 17 + n <> len then fail (pos + 9) "bad value length";
  Bytes.sub_string b (pos + 17) n

(* Every read below stays inside [pos, pos + len), which the entry check
   keeps inside [b]: a malformed command can only fail, never read past
   its bytes. Only values are copied out. *)
let rec decode_sub b pos len =
  if pos < 0 || len < 9 || pos > Bytes.length b - len then fail pos "bad command window";
  let key = int_at b (pos + 1) in
  match Bytes.get b pos with
  | 'P' -> Put (key, value_at b pos len)
  | 'A' -> Append (key, value_at b pos len)
  | 'D' -> if len <> 9 then fail pos "bad delete length" else Delete key
  | 'B' ->
      let count = key in
      if count < 0 then fail (pos + 1) "negative batch count";
      let rec subs off n acc =
        if n = 0 then if off <> len then fail (pos + off) "bytes after the batch" else List.rev acc
        else begin
          if off + 8 > len then fail (pos + off) "batch cut inside a length word";
          let sl = int_at b (pos + off) in
          if sl < 0 || sl > len - off - 8 then fail (pos + off) "bad sub-command length";
          subs (off + 8 + sl) (n - 1) (decode_sub b (pos + off + 8) sl :: acc)
        end
      in
      Batch (subs 9 count [])
  | _ -> fail pos "unknown tag"

let decode s = decode_sub (Bytes.unsafe_of_string s) 0 (String.length s)

let equal a b = a = b
