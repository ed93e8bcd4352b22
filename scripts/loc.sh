#!/usr/bin/env bash
# loc.sh — the size a simplicity PR is measured by: non-blank, non-comment
# lines of non-test Go outside bench/, per package directory and in total.
# Run from the repository root; the output of two commits diffs line by line.
set -euo pipefail
count() { xargs cat | grep -v '^\s*//' | grep -v '^\s*$' | wc -l; }
src() { find "$@" -name '*.go' ! -name '*_test.go' ! -path './bench/*'; }
for dir in $(src . | xargs -n1 dirname | sort -u); do
  printf '%6d %s\n' "$(src "$dir" -maxdepth 1 | count)" "$dir"
done
printf '%6d total\n' "$(src . | count)"
