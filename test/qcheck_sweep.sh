#!/usr/bin/env bash
# QCheck seed sweep: runs each test binary that holds QCheck properties
# under every seed of the regression list, then under N fresh seeds, and
# prints `QCHECK_SEED=<s> <binary>` for each failing run. Exits 1 if any
# run failed.
#
#   test/qcheck_sweep.sh N
#
# The binaries are the test/test_*.ml sources that use QCheck_alcotest.
# Each keeps its properties in an Alcotest group named `qcheck`, and the
# sweep runs only that group (`<binary>.exe test qcheck`): the other cases
# do not depend on the seed, and `dune runtest` runs them. The seed
# test/dune pins is `dune runtest`'s to check, so the sweep skips it.
# Reproduce a failure with
#   QCHECK_SEED=<s> dune exec test/<binary>.exe -- test qcheck
# and, once it is fixed, add <s> to the regression list below.
set -u

n=${1:?usage: test/qcheck_sweep.sh N}
regressions=(467221 756093673)

cd "$(dirname "$0")/.."
binaries=($(grep -l QCheck_alcotest test/test_*.ml | xargs -n1 basename | sed 's/\.ml$//'))
pinned=$(sed -n 's/.*(QCHECK_SEED \([0-9]*\)).*/\1/p' test/dune)
dune build $(printf 'test/%s.exe ' "${binaries[@]}") || exit 2
for b in "${binaries[@]}"; do
  "_build/default/test/$b.exe" list | grep -q '^qcheck ' \
    || { echo "$b has no qcheck group" >&2; exit 2; }
done

seeds=()
for seed in "${regressions[@]}"; do
  [ "$seed" = "$pinned" ] || seeds+=("$seed")
done
for ((i = 0; i < n; i++)); do
  seeds+=($(((RANDOM << 15 | RANDOM) % 1000000000)))
done

failed=0
for seed in "${seeds[@]}"; do
  for b in "${binaries[@]}"; do
    if ! QCHECK_SEED=$seed "_build/default/test/$b.exe" test qcheck >/dev/null 2>&1; then
      echo "QCHECK_SEED=$seed $b"
      failed=1
    fi
  done
done
echo "swept ${#binaries[@]} binaries under ${#seeds[@]} seeds" \
  "(regression list and $n fresh; pinned ${pinned:-none} left to dune runtest):" \
  "$([ $failed = 0 ] && echo "no failure" || echo "failures above")"
exit $failed
