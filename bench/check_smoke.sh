#!/usr/bin/env bash
# Compare a bench/suite smoke run against the committed record.
#
#   bench/check_smoke.sh RECORD RUN
#
# RECORD and RUN are `suite.exe --out` files. Fails if any run in RUN is
# not correct, or if the seven modelled end-to-end metrics (Report.modelled)
# of any workload differ from RECORD's by any amount. Those metrics are
# exact per seed and compiler, so any difference is a change in the
# modelled system. Needs jq.
set -euo pipefail

modelled() {
  jq -r '.runs[] | .workload as $w | .end_to_end | to_entries[]
    | select(.key | IN("sim_ops_per_s", "sim_read_p50_ns", "sim_write_p50_ns",
                       "sim_p99_ns", "sim_p999_ns", "nvm_write_amp", "space_amp"))
    | "\($w) \(.key) \(.value.value)"' "$1"
}

jq -e '[.runs[].correct] | length > 0 and all' "$2" > /dev/null \
  || { echo "check_smoke: a run in $2 is not correct" >&2; exit 1; }
diff -u <(modelled "$1") <(modelled "$2") \
  || { echo "check_smoke: modelled metrics of $2 differ from $1" >&2; exit 1; }
echo "check_smoke: $(modelled "$2" | wc -l) modelled metrics match $1"
