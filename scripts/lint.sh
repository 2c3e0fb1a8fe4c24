#!/bin/sh
# Static-analysis entry point, matching the CI gates exactly: gofmt
# cleanliness, go vet, the daemons' layering (tdmroutd and tdmcoord must
# not link the experiment harness, internal/exp), and the repo's own
# tdmlint suite — all eight analyzers (floatcast, maporder, rawgo, floateq,
# ctxflow, mutexhold, satarith, detsource — see internal/lint) over the
# whole tree, including internal/lint and cmd/tdmlint themselves (the
# linter must pass its own rules). Set SARIF_OUT to also emit a SARIF 2.1.0
# report for CI code-scanning upload.
#
#   scripts/lint.sh                          # gate: exit 1 on any finding
#   SARIF_OUT=report.sarif scripts/lint.sh   # also write the SARIF report
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt"
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
  echo "needs gofmt:"; echo "$fmt"; exit 1
fi

echo "== vet"
go vet ./...

echo "== layering"
deps=$(go list -deps ./cmd/tdmroutd ./cmd/tdmcoord)
if echo "$deps" | grep -qx 'tdmroute/internal/exp'; then
  echo "cmd/tdmroutd or cmd/tdmcoord depends on tdmroute/internal/exp"; exit 1
fi

echo "== tdmlint (8 analyzers, whole tree incl. internal/lint)"
if [ -n "${SARIF_OUT:-}" ]; then
  go run ./cmd/tdmlint -sarif "$SARIF_OUT" ./...
else
  go run ./cmd/tdmlint ./...
fi

echo "OK"
