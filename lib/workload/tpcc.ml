module Rng = Kamino_sim.Rng
module Heap = Kamino_heap.Heap
module Engine = Kamino_core.Engine

type tx_kind = New_order | Payment | Order_status | Delivery | Stock_level

let kind_name = function
  | New_order -> "new-order"
  | Payment -> "payment"
  | Order_status -> "order-status"
  | Delivery -> "delivery"
  | Stock_level -> "stock-level"

(* Object layouts (field byte offsets). Money amounts are integer cents. *)

(* Warehouse: ytd. *)
let w_ytd = 0
let w_size = 16

(* District: ytd, next_o_id, initial_o_id. *)
let d_ytd = 0
let d_next_o_id = 8
let d_initial_o_id = 16
let d_size = 40

(* Customer: balance, ytd_payment, payment_cnt, delivery_cnt, last_order. *)
let c_balance = 0
let c_ytd_payment = 8
let c_payment_cnt = 16
let c_delivery_cnt = 24
let c_last_order = 32
let c_size = 40

(* Stock: quantity, ytd, order_cnt. *)
let s_quantity = 0
let s_ytd = 8
let s_order_cnt = 16
let s_size = 24

(* Order: customer, ol_cnt, carrier, total, first line pointer, next
   undelivered order (per-district delivery queue). Order lines are
   separate objects, as in TPC-C's ORDER-LINE table. *)
let o_customer = 0
let o_ol_cnt = 8
let o_carrier = 16
let o_total = 24
let o_first_line = 32
let o_next_order = 40
let o_size = 48
let max_lines = 15

(* Order line: item, quantity, amount, next line. *)
let ol_item = 0
let ol_qty = 8
let ol_amount = 16
let ol_next = 24
let ol_size = 32

(* Per-district new-order queue appendix stored in the district object. *)
let d_oldest_undelivered = 24
let d_newest_undelivered = 32

type t = {
  engine : Engine.t;
  warehouses : Heap.ptr array;
  districts : Heap.ptr array array;  (* [w].[d] *)
  customers : Heap.ptr array array;  (* [w * districts + d].[c] *)
  stock : Heap.ptr array;
  items : int;
  initial_o_id : int;
}

(* Population runs in chunked transactions so table sizes are not bounded
   by the intent log's per-transaction entry limit. *)
let alloc_table engine n size init =
  let chunk = 40 in
  let out = Array.make n Heap.null in
  let i = ref 0 in
  while !i < n do
    let stop = min n (!i + chunk) in
    Engine.with_tx engine (fun tx ->
        for j = !i to stop - 1 do
          let p = Engine.alloc tx size in
          init tx p j;
          out.(j) <- p
        done);
    i := stop
  done;
  out

let setup engine ~warehouses ~districts_per_w ~customers_per_district ~items ~rng =
  ignore rng;
  let initial_o_id = 1 in
  let ws = alloc_table engine warehouses w_size (fun _ _ _ -> ()) in
  let ds =
    Array.init warehouses (fun _ ->
        alloc_table engine districts_per_w d_size (fun tx p _ ->
            Engine.write_int tx p d_next_o_id initial_o_id;
            Engine.write_int tx p d_initial_o_id initial_o_id))
  in
  let cs =
    Array.init (warehouses * districts_per_w) (fun _ ->
        alloc_table engine customers_per_district c_size (fun _ _ _ -> ()))
  in
  let stock =
    alloc_table engine items s_size (fun tx p _ -> Engine.write_int tx p s_quantity 100)
  in
  { engine; warehouses = ws; districts = ds; customers = cs; stock; items; initial_o_id }

let pick rng a = a.(Rng.int rng (Array.length a))

let district_customers t w d =
  t.customers.((w * Array.length t.districts.(0)) + d)

let rand_wd t rng =
  let w = Rng.int rng (Array.length t.warehouses) in
  let d = Rng.int rng (Array.length t.districts.(w)) in
  (w, d)

let new_order t rng =
  let w, d = rand_wd t rng in
  let district = t.districts.(w).(d) in
  let customers = district_customers t w d in
  let customer = pick rng customers in
  let ol_cnt = 5 + Rng.int rng (max_lines - 4) in
  (* Pre-draw the lines so the RNG is not consumed inside the transaction
     body in a way that depends on engine internals. *)
  let lines =
    Array.init ol_cnt (fun _ -> (Rng.int rng t.items, 1 + Rng.int rng 10))
  in
  Engine.with_tx t.engine (fun tx ->
      Engine.add tx district;
      let o_id = Engine.read_int tx district d_next_o_id in
      Engine.write_int tx district d_next_o_id (o_id + 1);
      let order = Engine.alloc tx o_size in
      Engine.write_int tx order o_customer customer;
      Engine.write_int tx order o_ol_cnt ol_cnt;
      (* Order lines are separate objects chained off the order, updating
         the corresponding stock rows as they are created. *)
      let total = ref 0 in
      let first = ref Heap.null in
      Array.iter
        (fun (item, qty) ->
          let s = t.stock.(item) in
          Engine.add tx s;
          let q = Engine.read_int tx s s_quantity in
          let q' = if q - qty >= 10 then q - qty else q - qty + 91 in
          Engine.write_int tx s s_quantity q';
          Engine.write_int tx s s_ytd (Engine.read_int tx s s_ytd + qty);
          Engine.write_int tx s s_order_cnt (Engine.read_int tx s s_order_cnt + 1);
          let line = Engine.alloc tx ol_size in
          let amount = qty * 100 in
          Engine.write_int tx line ol_item item;
          Engine.write_int tx line ol_qty qty;
          Engine.write_int tx line ol_amount amount;
          Engine.write_int tx line ol_next !first;
          first := line;
          total := !total + amount)
        lines;
      Engine.write_int tx order o_first_line !first;
      Engine.write_int tx order o_total !total;
      (* Append to the district's undelivered-order queue. *)
      let newest = Engine.read_int tx district d_newest_undelivered in
      if newest = Heap.null then Engine.write_int tx district d_oldest_undelivered order
      else begin
        Engine.add tx newest;
        Engine.write_int tx newest o_next_order order
      end;
      Engine.write_int tx district d_newest_undelivered order;
      Engine.add tx customer;
      Engine.write_int tx customer c_last_order order)

let payment t rng =
  let w, d = rand_wd t rng in
  let warehouse = t.warehouses.(w) in
  let district = t.districts.(w).(d) in
  let customer = pick rng (district_customers t w d) in
  let amount = 100 + Rng.int rng 500000 in
  Engine.with_tx t.engine (fun tx ->
      Engine.add tx warehouse;
      Engine.write_int tx warehouse w_ytd (Engine.read_int tx warehouse w_ytd + amount);
      Engine.add tx district;
      Engine.write_int tx district d_ytd (Engine.read_int tx district d_ytd + amount);
      Engine.add tx customer;
      Engine.write_int tx customer c_balance (Engine.read_int tx customer c_balance - amount);
      Engine.write_int tx customer c_ytd_payment
        (Engine.read_int tx customer c_ytd_payment + amount);
      Engine.write_int tx customer c_payment_cnt
        (Engine.read_int tx customer c_payment_cnt + 1))

let order_status t rng =
  let w, d = rand_wd t rng in
  let customer = pick rng (district_customers t w d) in
  Engine.with_tx t.engine (fun tx ->
      Engine.read_lock tx customer;
      let _balance = Engine.read_int tx customer c_balance in
      let order = Engine.read_int tx customer c_last_order in
      if order <> Heap.null then begin
        Engine.read_lock tx order;
        let rec read_lines line =
          if line <> Heap.null then begin
            ignore (Engine.read_int tx line ol_item);
            read_lines (Engine.read_int tx line ol_next)
          end
        in
        read_lines (Engine.read_int tx order o_first_line)
      end)

let delivery t rng =
  (* TPC-C delivery processes the district's oldest undelivered order:
     assign a carrier, credit the customer, consume the order's lines
     (freed — exercising transactional deallocation under load). *)
  let w, d = rand_wd t rng in
  let district = t.districts.(w).(d) in
  Engine.with_tx t.engine (fun tx ->
      let order = Engine.read_int tx district d_oldest_undelivered in
      if order <> Heap.null then begin
        Engine.add tx district;
        Engine.add tx order;
        let next = Engine.read_int tx order o_next_order in
        Engine.write_int tx district d_oldest_undelivered next;
        if next = Heap.null then Engine.write_int tx district d_newest_undelivered Heap.null;
        Engine.write_int tx order o_carrier (1 + Rng.int rng 10);
        let total = Engine.read_int tx order o_total in
        let customer = Engine.read_int tx order o_customer in
        (* consume the order lines *)
        let rec free_lines line =
          if line <> Heap.null then begin
            let next_line = Engine.read_int tx line ol_next in
            Engine.free tx line;
            free_lines next_line
          end
        in
        free_lines (Engine.read_int tx order o_first_line);
        Engine.write_int tx order o_first_line Heap.null;
        Engine.add tx customer;
        Engine.write_int tx customer c_balance (Engine.read_int tx customer c_balance + total);
        Engine.write_int tx customer c_delivery_cnt
          (Engine.read_int tx customer c_delivery_cnt + 1)
      end)

let stock_level t rng =
  Engine.with_tx t.engine (fun tx ->
      let low = ref 0 in
      for _ = 1 to 20 do
        let s = pick rng t.stock in
        Engine.read_lock tx s;
        if Engine.read_int tx s s_quantity < 15 then incr low
      done;
      ignore !low)

(* Draws a transaction type from the standard mix. *)
let sample_kind rng =
  let p = Rng.int rng 100 in
  if p < 45 then New_order
  else if p < 88 then Payment
  else if p < 92 then Order_status
  else if p < 96 then Delivery
  else Stock_level

let run t rng = function
  | New_order -> new_order t rng
  | Payment -> payment t rng
  | Order_status -> order_status t rng
  | Delivery -> delivery t rng
  | Stock_level -> stock_level t rng

let run_mix t rng =
  let kind = sample_kind rng in
  run t rng kind;
  kind

let consistency_check t =
  let e = t.engine in
  let error = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !error = None then error := Some s) fmt in
  Array.iteri
    (fun w wp ->
      let w_total = Engine.peek_int e wp w_ytd in
      let d_total =
        Array.fold_left (fun acc dp -> acc + Engine.peek_int e dp d_ytd) 0 t.districts.(w)
      in
      if w_total <> d_total then
        fail "warehouse %d: W_YTD %d <> sum(D_YTD) %d" w w_total d_total)
    t.warehouses;
  Array.iter
    (fun dps ->
      Array.iter
        (fun dp ->
          if Engine.peek_int e dp d_next_o_id < Engine.peek_int e dp d_initial_o_id then
            fail "district next_o_id went backwards")
        dps)
    t.districts;
  Array.iter
    (fun sp ->
      let q = Engine.peek_int e sp s_quantity in
      if q < 0 || q > 200 then fail "stock quantity %d out of bounds" q)
    t.stock;
  (* Delivery-queue integrity: the undelivered chain is acyclic, all its
     orders are carrier-less, and its tail pointer is consistent. *)
  Array.iter
    (fun dps ->
      Array.iter
        (fun dp ->
          let oldest = Engine.peek_int e dp d_oldest_undelivered in
          let newest = Engine.peek_int e dp d_newest_undelivered in
          if (oldest = Heap.null) <> (newest = Heap.null) then
            fail "district queue endpoints disagree";
          let rec walk order last n =
            if n > 1_000_000 then fail "undelivered queue too long (cycle?)"
            else if order = Heap.null then begin
              if last <> newest then fail "queue tail pointer stale"
            end
            else begin
              if Engine.peek_int e order o_carrier <> 0 then
                fail "undelivered order already has a carrier";
              walk (Engine.peek_int e order o_next_order) order (n + 1)
            end
          in
          walk oldest Heap.null 0)
        dps)
    t.districts;
  match !error with None -> Ok () | Some e -> Error e
