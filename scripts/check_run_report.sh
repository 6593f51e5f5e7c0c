#!/usr/bin/env bash
# End-to-end determinism gate: runs the train_save_serve example with
# --metrics-out and verifies its run_report.json per-epoch losses match
# tests/golden/train_save_serve_epochs.json byte-for-byte, with metrics
# both enabled and disabled (instrumentation must not perturb training).
#
# Usage: scripts/check_run_report.sh [build-dir]   (default: build)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
GOLDEN="tests/golden/train_save_serve_epochs.json"

extract_epochs() {
  # The "epochs" array is the deterministic part of the report;
  # fit_seconds is wall-clock-dependent.
  sed -n '/"epochs": \[/,/\]/p' "$1"
}

for metrics in 1 0; do
  out="$(mktemp -d)"
  RELGRAPH_METRICS="$metrics" "$BUILD"/examples/train_save_serve "$out" \
    --metrics-out "$out" >/dev/null
  if ! diff <(extract_epochs "$out/relgraph_demo.train.ckpt.run_report.json") \
            "$GOLDEN" >/dev/null; then
    echo "FAIL: run_report epochs diverge from $GOLDEN" \
         "(RELGRAPH_METRICS=$metrics)" >&2
    diff <(extract_epochs "$out/relgraph_demo.train.ckpt.run_report.json") \
         "$GOLDEN" >&2 || true
    rm -rf "$out"
    exit 1
  fi
  rm -rf "$out"
done
echo "OK: train_save_serve run_report epochs match golden (metrics on and off)"
