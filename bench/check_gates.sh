#!/usr/bin/env bash
# Compare a bench/gates.exe run against the committed record.
#
#   bench/check_gates.sh RECORD RUN
#
# RECORD and RUN are `gates.exe --out` files. Fails if the two differ in
# any modelled field of any cell, or in their modelled failures:
#   - every cell field except the wall fields and words/op: sim-ns/op,
#     snapshot hits and fallbacks, the staleness percentiles, the shard
#     cells' sim time, throughput, mean latency and commit count, and the
#     op and record counts;
#   - `failures`, the verdicts of the modelled gates (fsck, the 1-vs-2
#     domain determinism oracle, the monotone shard gate, sim-ns, zero
#     work).
# Those are exact per seed, so any difference is a change in the modelled
# system. Words/op, the wall fields and `wall_failures` (the wall gates)
# are printed for both files, not compared. Needs jq.
set -euo pipefail

record=${1:?usage: bench/check_gates.sh RECORD RUN}
run=${2:?usage: bench/check_gates.sh RECORD RUN}

unmodelled='["words_per_op", "wall_s", "wall_ops_per_s", "wall_speedup", "wall_speedup_min",
  "wall_speedup_max", "wall_trials_s"]'

# One line per cell: its identifying fields, then the rest as JSON.
cell_id='[.part, .engine, .workload, .mode, (.shards // empty | "shards=\(.)"),
  (.domains // empty | "domains=\(.)")] | map(select(. != null)) | join(" ")'

modelled() {
  jq -r --argjson skip "$unmodelled" "
    (.failures[] | \"failure: \" + .),
    (.cells[] | ($cell_id) + \": \"
      + (with_entries(select(.key | IN(\$skip[]) | not)) | tojson))" "$1"
}

# Each cell's unmodelled fields, record -> run, and the run's wall failures.
echo "check_gates: not compared (record -> run):"
jq -rn --argjson skip "$unmodelled" --slurpfile r "$record" --slurpfile n "$run" "
  def id: $cell_id;
  def num: if type == \"number\" then (. * 100 | round / 100) else . end;
  (\$r[0].cells | map({key: id, value: .}) | from_entries) as \$rc
  | ((\$n[0].wall_failures // [])[] | \"  wall failure: \" + .),
    (\$n[0].cells[] | . as \$c | id as \$i
      | \"  \" + \$i + \": \" + ([\$skip[] | select(\$c[.] != null)
          | . + \" \" + (\$rc[\$i][.] | num | tostring) + \" -> \" + (\$c[.] | num | tostring)]
          | join(\", \")))"

diff -u <(modelled "$record") <(modelled "$run") \
  || { echo "check_gates: modelled fields of $run differ from $record" >&2; exit 1; }
echo "check_gates: $(modelled "$run" | wc -l) modelled lines match $record"
