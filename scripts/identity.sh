#!/usr/bin/env bash
# identity.sh BIN ARGS... — the CLIs' byte-identity contract: build ./cmd/BIN,
# run it with ARGS at -parallel 1 and at -parallel 8, and fail unless both runs
# print the same bytes and, for crpmserve, write the same -json report. The
# serial run's stdout is passed through, for a gate behind the call to read.
set -euo pipefail
bin=$1
shift
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
go build -o "$dir/$bin" "./cmd/$bin"
for p in 1 8; do
  json=""
  if [ "$bin" = crpmserve ]; then json="-json $dir/p$p.json"; fi
  "$dir/$bin" "$@" -parallel "$p" $json > "$dir/p$p.out"
done
diff "$dir/p1.out" "$dir/p8.out" >&2
if [ "$bin" = crpmserve ]; then diff "$dir/p1.json" "$dir/p8.json" >&2; fi
cat "$dir/p1.out"
