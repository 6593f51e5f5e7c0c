#!/usr/bin/env bash
# Prints the line count of the library sources (every .cc and .h under
# src/), the figure simplification changes report before and after.
#
#   scripts/src_loc.sh        # e.g. "src_loc 21430"

set -euo pipefail
cd "$(dirname "$0")/.."

lines=$(find src \( -name '*.cc' -o -name '*.h' \) -print0 |
          xargs -0 cat | wc -l)
echo "src_loc ${lines// /}"
