#!/usr/bin/env sh
# Regenerates every pinned golden report under internal/exp/testdata
# with the real binaries — the single definition of the golden
# methodology, shared by local refreshes and the CI golden job.
#
# Usage:
#   scripts/regen-golden.sh [-j N] [-check]
#
#   -j N     worker count (default 1). The reports must be
#            byte-identical at any N; CI runs the script twice (-j 1
#            and -j 4) to prove it. When N > 1, the latsweep kind
#            deliberately runs at N-1 so the parallel pass also
#            exercises a second job-to-worker mapping of the pool (the
#            old inline CI recipe used gpusim -j 4 / latsweep -j 3 for
#            the same reason).
#   -check   after regenerating, fail if any golden changed — the CI
#            gate mode. Each diverged file is named with the first
#            line that differs (line number, pinned vs regenerated
#            text), so a CI failure says which report and which
#            number moved without anyone reproducing the run locally.
#
# The golden ledger (testdata/golden-ledger.json) maps each
# ResultCacheCodeVersion to the SHA-256 of every golden. Without
# -check the script adds the entry of a version the ledger lacks; it
# refuses to rewrite an existing entry, so a golden that moves needs a
# ResultCacheCodeVersion bump. With -check it only verifies the entry.
#
# Run from the repository root.
set -eu

J=1
CHECK=0
while [ $# -gt 0 ]; do
  case "$1" in
    -j)
      J="$2"
      shift 2
      ;;
    -check)
      CHECK=1
      shift
      ;;
    *)
      echo "usage: scripts/regen-golden.sh [-j N] [-check]" >&2
      exit 2
      ;;
  esac
done

OUT=internal/exp/testdata
FABRIC_OUT=internal/fabric/testdata

LJ="$J"
if [ "$J" -gt 1 ]; then
  LJ=$((J - 1))
fi

BIN_DIR=$(mktemp -d)
trap 'rm -rf "$BIN_DIR"' EXIT
GPUSIM="$BIN_DIR/gpusim"
go build -o "$GPUSIM" ./cmd/gpusim

# sweep KIND J [FLAGS...] pins one sweep kind three times: its table
# as KIND.golden, its CSV as KIND.csv.golden and its JSON report (the
# payload gpusimd caches and serves) as KIND.json.golden. Kinds called
# without -workloads pin their default set.
sweep() {
  kind="$1"
  j="$2"
  shift 2
  "$GPUSIM" sweep "$kind" "$@" -warmup 2000 -window 5000 -seed 1 -j "$j" > "$OUT/$kind.golden"
  "$GPUSIM" sweep "$kind" "$@" -warmup 2000 -window 5000 -seed 1 -j "$j" -csv > "$OUT/$kind.csv.golden"
  sweep_json "$kind" "$j" "$@"
}

# sweep_json KIND J [FLAGS...] pins only the JSON report, for a kind
# (the run batch) that has no table or CSV form.
sweep_json() {
  kind="$1"
  j="$2"
  shift 2
  "$GPUSIM" sweep "$kind" "$@" -warmup 2000 -window 5000 -seed 1 -j "$j" -json > "$OUT/$kind.json.golden"
}

"$GPUSIM" -workload sc,cfd -warmup 2000 -window 5000 -seed 1 -j "$J" > "$OUT/gpusim-sc-cfd.golden"
"$GPUSIM" -workload kmeans -warmup 2000 -window 5000 -seed 1 -j "$J" > "$OUT/gpusim-kmeans.golden"
sweep latsweep "$LJ" -workloads sc,cfd
sweep occupancy "$J"
sweep designspace "$J"
sweep bottleneck "$J" -workloads sc,leukocyte,kmeans
sweep scenarios "$J"
sweep advise "$J" -workloads sc,kmeans
sweep mitigation "$J" -workloads kmeans,bfs
sweep_json run "$J" -workloads sc,kmeans

# The fabric golden pins a fleet-merged sweep body (coordinator over
# three in-process workers). Its test owns the regeneration because
# the fleet needs live HTTP servers, not a one-shot CLI pipe; the -j
# sweep above doesn't apply — fleet merges are pinned byte-identical
# at every worker count by the package tests.
UPDATE_GOLDEN=1 go test ./internal/fabric/ -run TestGoldenFabricSweep -count 1 > /dev/null

# ledger checks the regenerated goldens against the current version's
# ledger entry (TestGoldenLedger); with UPDATE_LEDGER=1 set it first
# adds a missing entry (arguments are env assignments for the test).
# A failure names each golden that moved.
ledger() {
  if ! out=$(env "$@" go test . -run '^TestGoldenLedger$' -count 1 2>&1); then
    echo "$out" >&2
    echo "golden ledger check failed" >&2
    exit 1
  fi
}
if [ "$CHECK" = 0 ]; then
  ledger UPDATE_LEDGER=1
fi

if [ "$CHECK" = 1 ]; then
  # Name every diverged golden and its first differing line, then
  # fail. `git diff --exit-code` alone says only *that* something
  # moved; the gate's job is to say *what* — which report, which
  # line, pinned vs regenerated — in the CI log itself.
  FAILED=0
  for f in "$OUT"/*.golden "$FABRIC_OUT"/*.golden; do
    if ! git diff --quiet -- "$f"; then
      FAILED=1
      echo "golden diverged: $f" >&2
      # diff the pinned blob against the regenerated file and show the
      # first hunk: its "NcN" header is the line number, `<` is the
      # pinned text, `>` the regenerated text.
      git show "HEAD:$f" | diff - "$f" | sed -n '1,4p' | sed 's/^/  /' >&2
    fi
  done
  # Untracked goldens (a renamed output file) are drift too: git diff
  # cannot see them, so say so explicitly instead of passing.
  for f in $(git ls-files --others --exclude-standard -- "$OUT" "$FABRIC_OUT"); do
    FAILED=1
    echo "golden diverged: $f is not tracked (new or renamed output?)" >&2
  done
  if [ "$FAILED" = 1 ]; then
    echo "golden check failed: regenerated reports differ from the pinned files" >&2
    echo "(if the change is intentional, commit the regenerated goldens)" >&2
    exit 1
  fi
  ledger
fi
