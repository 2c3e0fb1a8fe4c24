#!/bin/sh
# Scale-1.0 smoke: checks two contracts at the PUBLISHED benchmark sizes,
# where the per-PR tier never runs. This is the CI-optional "fullscale" job
# (workflow_dispatch + nightly cron).
#
#   1. Worker invariance of partitioned routing: the iterated solve with
#      -partitions 3 must produce identical solution digests at -workers 1
#      and -workers 2 (the routing is a pure function of the instance and
#      the partition count).
#   2. Legality: synopsys01 is generated with cmd/gen, solved with
#      cmd/tdmroute, and the written solution is checked by the independent
#      checker cmd/eval (ValidateSolution, with an AuditSolution report of
#      every violation on failure).
#
#   scripts/fullscale.sh
#
# Tunables (environment):
#   FULLSCALE_BENCHES   comma-separated benchmark subset for check 1
#                       (default keeps the job time-boxed to the two
#                       smallest boards)
#   FULLSCALE_ROUNDS    feedback-round budget for check 1 (default 1)
#   FULLSCALE_SCALE     suite scale factor (default 1.0; lower it to smoke
#                       the script itself)
#   FULLSCALE_OUT       scratch/output directory (default /tmp/fullscale)
set -eu
cd "$(dirname "$0")/.."

BENCHES="${FULLSCALE_BENCHES:-synopsys01,synopsys02}"
ROUNDS="${FULLSCALE_ROUNDS:-1}"
SCALE="${FULLSCALE_SCALE:-1.0}"
OUT="${FULLSCALE_OUT:-/tmp/fullscale}"
mkdir -p "$OUT"

echo "== build"
go build -o "$OUT/" ./cmd/bench ./cmd/gen ./cmd/tdmroute ./cmd/eval

for w in 1 2; do
  echo "== scale $SCALE, partitions 3, workers $w"
  "$OUT/bench" -benchjson "$OUT/part-w$w.json" -scale "$SCALE" -benchmarks "$BENCHES" \
    -rounds "$ROUNDS" -reps 1 -workers "$w" -partitions 3 -v
done

# A divergence here means the partitioned router's schedule leaked into
# its result.
w1=$(grep -o '"solution_sha256": "[a-f0-9]*"' "$OUT/part-w1.json")
w2=$(grep -o '"solution_sha256": "[a-f0-9]*"' "$OUT/part-w2.json")
if [ -z "$w1" ] || [ "$w1" != "$w2" ]; then
  echo "FAIL: partitioned solution digests differ across worker counts at scale $SCALE"
  echo "-- workers 1:"; echo "$w1"
  echo "-- workers 2:"; echo "$w2"
  exit 1
fi
echo "partitioned solution digests identical at workers 1 and 2"

echo "== wall times (ms, workers 1 then 2)"
grep -o '"wall_ms": [0-9.]*' "$OUT/part-w1.json"
grep -o '"wall_ms": [0-9.]*' "$OUT/part-w2.json"

echo "== legality: synopsys01 at scale $SCALE through cmd/tdmroute and cmd/eval"
"$OUT/gen" -name synopsys01 -scale "$SCALE" -o "$OUT/synopsys01.txt"
"$OUT/tdmroute" -in "$OUT/synopsys01.txt" -out "$OUT/synopsys01.sol"
"$OUT/eval" -in "$OUT/synopsys01.txt" -sol "$OUT/synopsys01.sol"
echo "OK"
