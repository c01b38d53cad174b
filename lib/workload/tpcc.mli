(** TPC-C-lite: a scaled-down TPC-C benchmark over the persistent heap.

    Implements the five transaction types with the standard mix (45%
    new-order, 43% payment, 4% each of order-status, delivery,
    stock-level) over warehouse / district / customer / stock / order
    objects, each transaction touching several objects — the
    multi-object-transaction shape that Figure 1 and Figure 13 measure.
    Scaled for simulation (configurable warehouses/customers/items) and
    validated by a consistency check (TPC-C's W_YTD = sum(D_YTD)
    invariant, non-negative balances bookkeeping, monotone order ids). *)

type t

type tx_kind = New_order | Payment | Order_status | Delivery | Stock_level

val kind_name : tx_kind -> string

(** [setup engine ~warehouses ~districts_per_w ~customers_per_district
    ~items ~rng] allocates and populates all tables (one transaction per
    table chunk). *)
val setup :
  Kamino_core.Engine.t ->
  warehouses:int ->
  districts_per_w:int ->
  customers_per_district:int ->
  items:int ->
  rng:Kamino_sim.Rng.t ->
  t

(** [run_mix t rng] draws from the mix and runs it; returns the kind. *)
val run_mix : t -> Kamino_sim.Rng.t -> tx_kind

(** TPC-C consistency conditions that must hold on committed state:
    W_YTD = sum of the warehouse's D_YTD; every district's NEXT_O_ID is at
    least its initial value; stock quantities within bounds. *)
val consistency_check : t -> (unit, string) result
