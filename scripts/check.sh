#!/bin/sh
# Full verification pass: build, vet, formatting, tests (with race detector
# where requested), and a benchmark smoke run.
#
#   scripts/check.sh          # quick: build + vet + short tests
#   scripts/check.sh full     # adds full tests, the race detector over the
#                             # whole tree, CI's bench-smoke packages and
#                             # CI's perfbench smoke
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt"
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
  echo "needs gofmt:"; echo "$fmt"; exit 1
fi

echo "== build"
go build ./...

echo "== vet"
go vet ./...

echo "== tdmlint"
go run ./cmd/tdmlint ./...

if [ "${1:-}" = "full" ]; then
  echo "== tests (full)"
  go test ./...
  echo "== race"
  go test -race ./...
  echo "== bench smoke"
  go test -run=NONE -bench=. -benchtime=1x . ./internal/graph ./internal/par ./internal/route ./internal/tdm
  echo "== perfbench smoke"
  ./scripts/perfbench_smoke.sh
else
  echo "== tests (short)"
  go test -short ./...
fi
echo "OK"
