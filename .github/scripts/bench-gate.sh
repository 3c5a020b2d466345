#!/usr/bin/env bash
# Parent-vs-change performance gate over the repository benchmark.
#
#   bash .github/scripts/bench-gate.sh BASE_DIR NEW_DIR OUT_DIR SEED...
#
# Runs bench/run.sh in two checkouts on the same machine, for every bench
# workload BENCHMARK.json names and every seed, alternating which checkout
# runs first so host drift falls on both sides alike. The records go to
# OUT_DIR/base.ndjson and OUT_DIR/new.ndjson. It then prints the -compare
# table of NEW_DIR (whose BENCHMARK.json bounds apply) and exits 1 when any
# end-to-end verdict reads "regressed". The gate reads the rescaled verdict
# column; the unscaled one carries the host's drift and is a cross-check for
# the reader.
set -euo pipefail

if [ $# -lt 4 ]; then
  echo "usage: $0 BASE_DIR NEW_DIR OUT_DIR SEED..." >&2
  exit 2
fi
base=$(cd "$1" && pwd)
new=$(cd "$2" && pwd)
mkdir -p "$3"
out=$(cd "$3" && pwd)
shift 3
seeds=("$@")

rm -f "$out/base.ndjson" "$out/new.ndjson"
workloads=$(jq -r '.workloads[].name' "$new/BENCHMARK.json")
# The order flips from one workload to the next and from one seed to the
# next, so each workload runs base-first on every other seed.
for i in "${!seeds[@]}"; do
  seed=${seeds[$i]}
  turn=$i
  for w in $workloads; do
    if [ $((turn % 2)) -eq 0 ]; then order="base new"; else order="new base"; fi
    turn=$((turn + 1))
    for side in $order; do
      dir=$base
      [ "$side" = new ] && dir=$new
      echo "bench-gate: $w seed $seed on $side" >&2
      bash "$dir/bench/run.sh" -workload "$w" -seed "$seed" -out "$out/$side.ndjson" >/dev/null
    done
  done
done

bash "$new/bench/run.sh" -compare "$out/base.ndjson" "$out/new.ndjson" >"$out/compare.txt"
cat "$out/compare.txt"

# Columns are separated by two or more spaces (text/tabwriter padding); the
# seventh is the verdict. Only end-to-end sections are judged.
awk '
  /^== / { e2e = ($3 == "end-to-end:"); next }
  e2e {
    n = split($0, f, /  +/)
    if (n < 7 || f[1] == "metric" || f[7] == "not gated") next
    judged++
    if (f[7] == "regressed") { print "bench-gate: regressed: " f[1]; bad = 1 }
  }
  END {
    if (!judged) { print "bench-gate: no end-to-end verdicts found"; exit 1 }
    exit bad
  }
' "$out/compare.txt"
