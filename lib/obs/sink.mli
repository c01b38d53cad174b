(** Render a tracer / registry into consumable form.

    The Perfetto sink writes Chrome trace-event JSON (the
    ["traceEvents"] array format) loadable by https://ui.perfetto.dev
    or chrome://tracing.  Timestamps are simulated microseconds with
    nanosecond precision ([ts]/[dur] carry three decimals); track names
    become per-tid thread metadata.  Output is a pure function of ring
    contents, so traces are byte-identical for the same seed. *)

val perfetto_string : Obs.t -> string

val write_perfetto_file : string -> Obs.t -> unit
(** Write (truncate) [path] with the JSON document. *)

val hist_rows : Buffer.t -> (string * Metrics.hist) list -> unit
(** A header line, then one row per histogram: count, mean, p50, p95,
    p99 and max — the table {!summary} prints, for callers that hold
    histograms of their own. *)

val summary : Buffer.t -> ?obs:Obs.t -> Metrics.t -> unit
(** Plain-text report: counters, then histograms
    (count/mean/p50/p95/p99/max), then — when [obs] is given — ring
    occupancy and drop counts.  Deterministic ordering. *)

val summary_string : ?obs:Obs.t -> Metrics.t -> string
