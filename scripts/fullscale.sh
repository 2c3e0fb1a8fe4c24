#!/bin/sh
# Scale-1.0 smoke: checks two contracts at the PUBLISHED benchmark sizes,
# where the per-PR unit tests never run. The CI "fullscale" job runs it at
# scale 1.0 (workflow_dispatch + nightly cron); the per-PR job runs it at
# scale 0.01 so the script itself stays working.
#
#   1. Worker invariance of the default solve path: each board is
#      generated with cmd/gen and solved by cmd/tdmroute -iterate
#      $FULLSCALE_ROUNDS (wave routing, LR, legalization, refinement and
#      feedback rounds) at -workers 1, 2 and 4; the solution files must be
#      byte-identical (cmp), since Workers only schedules fixed work: the
#      routing waves and every LR chunk partition depend on the instance
#      alone.
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
go build -o "$OUT/" ./cmd/gen ./cmd/tdmroute ./cmd/eval

# A divergence here means the worker count leaked into the result.
for b in $(echo "$BENCHES" | tr ',' ' '); do
  "$OUT/gen" -name "$b" -scale "$SCALE" -o "$OUT/$b.txt"
  for w in 1 2 4; do
    echo "== $b scale $SCALE, workers $w"
    "$OUT/tdmroute" -in "$OUT/$b.txt" -out "$OUT/$b-w$w.sol" \
      -iterate "$ROUNDS" -workers "$w" >"$OUT/$b-w$w.log"
    grep '^Time:' "$OUT/$b-w$w.log"
  done
  for w in 2 4; do
    if ! cmp "$OUT/$b-w1.sol" "$OUT/$b-w$w.sol"; then
      echo "FAIL: $b solutions differ between workers 1 and $w at scale $SCALE"
      exit 1
    fi
  done
done
echo "solution digests identical at workers 1, 2 and 4"

echo "== legality: synopsys01 at scale $SCALE through cmd/tdmroute and cmd/eval"
"$OUT/gen" -name synopsys01 -scale "$SCALE" -o "$OUT/synopsys01.txt"
"$OUT/tdmroute" -in "$OUT/synopsys01.txt" -out "$OUT/synopsys01.sol"
"$OUT/eval" -in "$OUT/synopsys01.txt" -sol "$OUT/synopsys01.sol"
echo "OK"
