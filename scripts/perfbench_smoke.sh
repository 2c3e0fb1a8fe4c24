#!/bin/sh
# Runs every perfbench workload for one second and fails unless each run
# exits 0 and its result line (the last line of output) reports
# "correct": true and "failed": 0. The serve workload boots a tdmroutd
# fleet behind tdmcoord, so this also checks that the fleet starts, answers
# its health check and drains on SIGTERM.
#
#   scripts/perfbench_smoke.sh
set -eu
cd "$(dirname "$0")/.."

for w in flow partitioned assign serve; do
  echo "== perfbench $w"
  out=$(python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1) || {
    echo "perfbench $w exited non-zero"; exit 1
  }
  printf '%s\n' "$out" | tail -n 1 | python3 -c '
import json, sys
line = sys.stdin.read()
r = json.loads(line)
if r.get("correct") is not True or r.get("failed") != 0:
    sys.exit("perfbench %s: correct=%r failed=%r" % (sys.argv[1], r.get("correct"), r.get("failed")))
print(line.strip())
' "$w"
done
