type t = {
  store_overhead_ns : float;
  store_ns_per_byte : float;
  load_overhead_ns : float;
  load_ns_per_byte : float;
  flush_line_ns : float;
  fence_ns : float;
  copy_ns_per_byte : float;
  copy_overhead_ns : float;
  alloc_ns : float;
  free_ns : float;
  index_ns : float;
  lock_ns : float;
  log_entry_ns : float;
  clflush_ns : float;
  tx_overhead_ns : float;
}

let default =
  {
    store_overhead_ns = 2.0;
    store_ns_per_byte = 0.05;
    load_overhead_ns = 2.0;
    load_ns_per_byte = 0.05;
    flush_line_ns = 8.0;
    fence_ns = 100.0;
    copy_ns_per_byte = 0.1;
    copy_overhead_ns = 30.0;
    alloc_ns = 300.0;
    free_ns = 200.0;
    index_ns = 100.0;
    lock_ns = 20.0;
    log_entry_ns = 2000.0;
    clflush_ns = 150.0;
    tx_overhead_ns = 800.0;
  }

let slow_nvm =
  {
    default with
    flush_line_ns = 32.0;
    fence_ns = 500.0;
    copy_ns_per_byte = 0.5;
    store_ns_per_byte = 0.1;
  }

(* §2 "Hardware Support": persistent caches / whole-system persistence
   make flushes and fences unnecessary — but atomicity is still needed, so
   every other cost stays. *)
let whole_system_persistence =
  { default with flush_line_ns = 0.0; fence_ns = 0.0; clflush_ns = 0.0 }

let store_cost t len = t.store_overhead_ns +. (t.store_ns_per_byte *. float_of_int len)

let load_cost t len = t.load_overhead_ns +. (t.load_ns_per_byte *. float_of_int len)

let copy_cost t len = t.copy_overhead_ns +. (t.copy_ns_per_byte *. float_of_int len)

let loads_beat_fence t ~loads ~bytes =
  (float_of_int loads *. t.load_overhead_ns) +. (t.load_ns_per_byte *. float_of_int bytes)
  < t.fence_ns

let pp fmt t =
  Format.fprintf fmt
    "{flush_line=%.0fns fence=%.0fns copy=%.2fns/B alloc=%.0fns index=%.0fns}"
    t.flush_line_ns t.fence_ns t.copy_ns_per_byte t.alloc_ns t.index_ns
