#!/usr/bin/env bash
# ci.sh JOB — the gate, one job at a time: test, replica, bench, serve, measure,
# migrate or torture. .github/workflows/ci.yml runs all seven; a session runs
# the jobs that cover the packages it touched (.claude/skills/verify/SKILL.md
# has the map) before it claims green.
#
# Each package is raced once per depth: -short, and the packages whose tests
# -short skips or shrinks (core, harness, torture) once more at full size, in
# the torture job. Every crpmserve smoke is a row of the table in rows(); one
# loop, check(), runs the current job's rows.
set -euo pipefail
case $#:${1:-} in
1:test | 1:replica | 1:bench | 1:serve | 1:measure | 1:migrate | 1:torture) job=$1 ;;
*)
  echo "usage: scripts/ci.sh test|replica|bench|serve|measure|migrate|torture" >&2
  exit 2
  ;;
esac
cd "$(dirname "$0")/.."
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
go build -o "$out/crpmserve" ./cmd/crpmserve

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# rows: job | run | metrics | cmp | bound | crpmserve argv | reason.
# run is "once", or "p1p8" for scripts/identity.sh (-parallel 1 and 8, stdout
# and -json byte-identical). crpmserve exits 1 on any lost or double-applied
# op, which fails the row. Each metric is read by name from the run's -json
# report (the serial run's, for p1p8) and must be a number for which
# "metric cmp bound" holds.
rows() {
  cat <<'EOF'
serve   | once |                                     |    |      | -shards 4 -clients 8 -mix a -ops 1000000 -json serve_small.json | service smoke, 4 shards x 8 clients, YCSB-A; the report is the serve-small artifact
serve   | p1p8 |                                     |    |      | -shards 4 -clients 8 -mix a -ops 200000 | service bytes identical at any -parallel
serve   | once |                                     |    |      | -shards 8 -clients 16 -mix a -ops 200000 -policy pause:2us | incremental pause-budget smoke, 8 shards
serve   | once | serve_cuts                          | == | 2    | -shards 2 -clients 4 -mix c -ops 100000 -policy dirty:1048576 | the dirty policy counts what the epoch dirtied: a read-only run takes the populate and close-out cuts only (every differential bit in the heap: 50)
serve   | p1p8 | serve_cuts                          | >= | 5    | -shards 2 -clients 4 -mix a -ops 200000 -policy dirty:1048576 -target 1e6 | blocks the idle gaps flushed early still count: 10 cuts (only what the cut would still flush: 2)
serve   | once | serve_cuts                          | == | 50   | -shards 2 -clients 4 -mix a -ops 100000 -backend incll -policy dirty:65536 | incll's estimate is the touched-line footprint, inline-logged lines included, as default's takes 50 (side-logged lines only: 7)
replica | once |                                     |    |      | -shards 4 -clients 8 -mix b -ops 200000 -replicas 2 -sla mix -killprimary 1 | kill-primary smoke: shard 1's primary dies mid-serve, a secondary is promoted
replica | p1p8 |                                     |    |      | -shards 4 -clients 8 -mix b -ops 200000 -replicas 2 -sla mix -killprimary 2 | failover bytes identical at any -parallel
replica | p1p8 |                                     |    |      | -shards 4 -clients 8 -mix b -ops 200000 -replicas 2 -sla mix -policy pause:2us -killprimary 2 | failover under the incremental pipeline, bytes identical at any -parallel
replica | p1p8 |                                     |    |      | -shards 2 -clients 4 -keys 200000 -heap 33554432 -buckets 131072 -mix b -ops 300000 -policy ops:16384 -replicas 2 -sla mix -killprimary 1 | recycled delta buffers at replica_b's fleet shape, through DropAbove and promotion: bytes identical at any -parallel
replica | p1p8 |                                     |    |      | -mix b -replicas 2 -sla mix -target 3e6 -warmup 20000 -killprimary 1 | open loop x replicas through a kill-primary: every read, primary- or secondary-served, acked against its intended arrival; failover bytes identical at any -parallel
measure | once |                                     |    |      | -shards 4 -clients 8 -mix a -target 4e6 -duration 50ms -warmup 20000 -dist uniform | open-loop smoke, time-bounded at a fixed offered load
measure | once |                                     |    |      | -shards 4 -clients 8 -mix b -target 8e6 -ops 400000 -dist hotspot -policy pause:2us | open-loop smoke past the knee, incremental cuts, hotspot keys
measure | once |                                     |    |      | -shards 4 -clients 8 -mix a -ops 200000 -dist exponential | exponential key distribution smoke
measure | p1p8 |                                     |    |      | -target 4e6 -duration 50ms | open-loop bytes identical at any -parallel
measure | p1p8 | serve_open_p99_us                   | <= | 50   | -shards 4 -clients 8 -mix a -dist uniform -policy pause:2us -target 1e6 -ops 200000 -warmup 20000 | idle-gap quanta: open p99 must stay quantum-scale, or acks are being held past the idle gap
measure | p1p8 | serve_open_p95_us serve_open_p99_us | <= | 20   | -shards 2 -clients 4 -keys 200000 -heap 33554432 -buckets 131072 -mix a -ops 1000000 -policy ops:16384 -target 1e6 -warmup 50000 | neither the cut's flush nor the epoch's copies may be on the request path (flush left to the cut, copies inline: p99 434.2; flush in the gaps: 311.3); p95 is what a quantum that overran its gap would move
measure | p1p8 | serve_open_p99_us                   | <= | 50   | -shards 2 -clients 4 -keys 200000 -heap 33554432 -buckets 131072 -mix a -ops 2000000 -policy ops:16384 -warmup 100000 -target 3e6 | a third of the time idle: the gate must still defer copy-on-write (copies inline: p99 434.2)
measure | p1p8 | serve_tput_mops                     | >= | 4.15 | -shards 2 -clients 4 -keys 200000 -heap 33554432 -buckets 131072 -mix a -ops 2000000 -policy ops:16384 -warmup 100000 -target 5e6 | saturated, no gaps to defer into: the gate must decline, serving what the copies inline serve (deferring regardless: 3.856 Mops/s)
measure | p1p8 | serve_open_p99_us                   | <= | 1250 | -shards 2 -clients 4 -keys 200000 -heap 33554432 -buckets 131072 -mix a -dist uniform -policy pause:2us -target 5e6 -ops 1000000 -warmup 50000 | the benchmark's SLO one rung past the old knee: the first requests must not pay the populate's copy-on-write (lazily: 3866.6)
migrate | once |                                     |    |      | -shards 2 -clients 4 -ops 200000 -policy ops:4096 -migrate split:0@2,merge:2>1@6 | live split+merge smoke
migrate | once | serve_migrations                    | >= | 1    | -shards 2 -clients 4 -ops 200000 -autosplit 4 | the documented autosplit example must split
migrate | p1p8 | serve_migrations                    | == | 3    | -ops 200000 -migrate split:0@2,move:1>2@4,merge:3>1@6 | the -migrate help's own example, the only row with a move: all three run, bytes identical at any -parallel
migrate | p1p8 |                                     |    |      | -shards 2 -clients 4 -ops 200000 -policy pause:2us -migrate split:0@2,merge:2>1@6 | live split+merge under the incremental pipeline, bytes identical at any -parallel
migrate | p1p8 | serve_migrations                    | == | 3    | -shards 2 -clients 4 -ops 200000 -ds rbmap -backend buffered -migrate split:0@2,move:1>2@4,merge:2>0@6 | the source's snapshot and delete walk go through the red-black tree over the buffered backend, which no other row migrates: all three run, bytes identical at any -parallel
migrate | p1p8 | serve_migrations                    | == | 2    | -shards 3 -clients 6 -ops 200000 -backend incll -mix crud -migrate split:0@2,merge:3>1@5 | the source's walk and catch-up reads go through incll under inserts and deletes, which no other row migrates: both run, bytes identical at any -parallel
migrate | p1p8 | serve_migrations                    | == | 2    | -shards 2 -clients 4 -ops 200000 -mix e -migrate split:0@2,merge:2>1@6 | YCSB-E's scans reach both destinations while they still owe their pull sets, which no other row does: a scan applies the whole set first; both run, bytes identical at any -parallel
migrate | p1p8 | serve_open_p99_us                   | <= | 50   | -shards 2 -clients 4 -keys 200000 -heap 33554432 -buckets 131072 -ops 1000000 -policy ops:16384 -target 1e6 -warmup 50000 -migrate split:0@2,merge:2>1@12 | migration work and the epochs' copy-on-write run in idle gaps; keep -buckets: a table that grows mid-install is one 30 ms Put (DESIGN.md §15.4)
migrate | once | serve_worst_interval_open_p99_us    | <= | 40   | -shards 2 -clients 4 -keys 200000 -heap 33554432 -buckets 131072 -ops 1000000 -policy ops:16384 -target 1e6 -warmup 50000 -migrate split:0@2,merge:2>1@12 | the flip cut applies nothing (the destination pulls the residual in the next epoch), and a migration quantum's fence also writes back the shard's aged request dirt: worst 1 ms interval 21.5 (the residual applied inside the flip cut: 86.0; the install's dirt left to the merge destination's cuts too: 139.3; the whole log since catch-up inside the flip cut: 540.7)
migrate | p1p8 | serve_cuts                          | >= | 100  | -shards 2 -clients 4 -keys 200000 -heap 33554432 -buckets 131072 -ops 1000000 -policy pause:2us -target 1e6 -warmup 50000 -migrate split:0@2,merge:2>1@12 | a rank with no arrivals must drain its cut quanta in the batch window: 151 cuts (one quantum per batch boundary: 5)
EOF
}

check() {
  local n=0 rjob run metrics cmp bound argv reason m v
  local -a args ms json cmd
  while IFS='|' read -r -u 3 rjob run metrics cmp bound argv reason; do
    read -r rjob <<<"$rjob"
    [ "$rjob" = "$job" ] || continue
    n=$((n + 1))
    read -r run <<<"$run"
    read -ra ms <<<"$metrics"
    read -r cmp <<<"$cmp"
    read -r bound <<<"$bound"
    read -ra args <<<"$argv"
    read -r reason <<<"$reason"
    json=()
    if [ ${#ms[@]} -gt 0 ]; then json=(-json "$out/$n.json"); fi
    cmd=("$out/crpmserve")
    if [ "$run" = p1p8 ]; then cmd=(scripts/identity.sh crpmserve); fi
    if ! "${cmd[@]}" "${args[@]}" "${json[@]}" > "$out/$n.log" 2>&1; then
      cat "$out/$n.log" >&2
      fail "crpmserve ${args[*]} ($run): $reason"
    fi
    echo "ok   crpmserve ${args[*]} ($run)"
    for m in "${ms[@]}"; do
      v=$(jq -e --arg m "$m" '[.experiments[].tables[].metrics[$m] | numbers] | if length == 1 then .[0] else empty end' "$out/$n.json") ||
        fail "$m is missing from the report or not a number: crpmserve ${args[*]}"
      jq -ne --argjson v "$v" --argjson b "$bound" "\$v $cmp \$b" > /dev/null ||
        fail "$m = $v, want $cmp $bound: $reason"
      echo "       $m = $v ($cmp $bound)"
    done
  done 3< <(rows)
}

# doclint: every backticked pkg.Identifier in the documents resolves — with
# go doc, or for Test/Benchmark/Fuzz names, a func of that name in the
# package's _test.go files — and every backticked path under a top-level entry
# of the repository exists.
doclint() {
  local doc span word pkg sym path dir bad=0
  local -a words
  local -A imp src
  while read -r pkg path dir; do imp[$pkg]=$path src[$pkg]=$dir; done < <(go list -f '{{if ne .Name "main"}}{{.Name}} {{.ImportPath}} {{.Dir}}{{end}}' ./...)
  for doc in DESIGN.md README.md .claude/skills/verify/SKILL.md; do
    while read -r span; do
      span=${span:1:${#span}-2}
      while read -r word; do
        pkg=${word%%.*} sym=${word#*.}
        [ -n "${imp[$pkg]:-}" ] || continue
        case $sym in go | md | json | csv | txt | out | sh | yml | mod) continue ;; esac
        if [[ $sym =~ ^(Test|Benchmark|Fuzz) ]]; then
          grep -qs "^func $sym(" "${src[$pkg]}"/*_test.go && continue
        elif go doc -c -u "${imp[$pkg]}" "$sym" > /dev/null 2>&1; then
          continue
        fi
        echo "$doc: \`$word\` does not resolve" >&2
        bad=1
      done < <(grep -oE '(^|[^A-Za-z0-9_./])[a-z][a-z0-9]*(\.[A-Za-z_][A-Za-z0-9_]*){1,2}' <<<"$span" | sed 's/^[^a-z]//')
      read -ra words <<<"$span"
      for word in "${words[@]}"; do
        path=${word#./} path=${path%%:[0-9]*} path=${path%/...}
        [[ $path == */* && -e ${path%%/*} && $path != *[\<{]* ]] || continue
        compgen -G "$path" > /dev/null && continue
        echo "$doc: \`$word\` does not exist" >&2
        bad=1
      done
    done < <(awk '/^[[:space:]]*```/ { fence = !fence; next } !fence' "$doc" | tr '\n' ' ' | grep -o '`[^`]*`')
  done
  [ $bad = 0 ] || fail "doc lint: stale names or paths"
  echo "ok   doc lint"
}

case $job in
test)
  go build ./...
  go vet ./...
  unformatted=$(gofmt -l .)
  [ -z "$unformatted" ] || fail "gofmt needed on: $unformatted"
  # The word rule (DESIGN.md §4): what a load or a store of n bytes costs is
  # decided in internal/nvm alone.
  words=$(grep -rn '<= 16' --include='*.go' internal cmd | grep -v _test.go | grep -v '^internal/nvm/' || true)
  [ -z "$words" ] || fail "a size compared against the word outside internal/nvm; call Device.Write / ChargeRead / ChargeDRAMRead / ChargeDRAMWrite: $words"
  # The recorder holds spans (DESIGN.md §9): a number a run reports lives in
  # the run's own result type. Observe stays for the benchmark's rung alone.
  observes=$(grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=bench '\.Observe("' . || true)
  [ -z "$observes" ] || fail "a named histogram outside tests and bench/; book the number where the run reports it: $observes"
  go test ./...
  # The benchmark module compiles against internal names: a name deleted
  # from under bench/ fails here, not in the benchmark run.
  (cd bench && go test .)
  scripts/loc.sh
  # A race build keeps device arenas and backends' DRAM regions on the Go heap
  # (internal/nvm/arena_heap.go), and at the default GOGC their garbage piles
  # up: the server binary alone passed 7 GB resident, and still passes 2 GB
  # within its first minute. A soft limit has the collector return it sooner
  # (the server step peaks at 3.6 GB, the test binary's max RSS).
  GOMEMLIMIT=2GiB go test -race -short ./internal/core/ ./internal/nvm/ ./internal/bitmap/ ./internal/mpi/ ./internal/sched/ ./internal/harness/ .
  GOMEMLIMIT=2GiB go test -race ./internal/server/ ./internal/incll/ ./internal/conformance/
  # Every other package with tests that no job races (the apps' ranks run as
  # goroutines): -short changes nothing in them (27 s on 2 vCPU).
  GOMEMLIMIT=2GiB go test -race -short ./internal/alloc/ ./internal/heap/ ./internal/pds/ ./internal/region/ \
    ./internal/obs/ ./internal/prof/ ./internal/ckpt/ ./internal/apps/... ./internal/baselines/... ./cmd/...
  doclint
  ;;
replica)
  go test -race ./internal/replica/
  ;;
bench)
  go run ./cmd/crpmbench -scale small -json -trace bench_small.trace.json
  # Every figure, simulated values only: a diff is a behaviour change (make
  # results rewrites the file).
  scripts/identity.sh crpmbench -exp all -scale small -format csv | diff results/small.csv -
  ;;
serve)
  # Budget 0 is stop-the-world byte for byte: the flag-less run against the
  # golden, -budget 0 against the flag-less run.
  "$out/crpmserve" -json "$out/default.json" > "$out/default.out"
  "$out/crpmserve" -budget 0 -json "$out/b0.json" > "$out/b0.out"
  diff results/golden/serve_budget0.out "$out/default.out"
  diff results/golden/serve_budget0.json "$out/default.json"
  diff "$out/default.out" "$out/b0.out"
  diff "$out/default.json" "$out/b0.json"
  ;;
measure)
  go test -race ./internal/measure/...
  # -count: the zeta memo is shared by concurrently constructed streams.
  go test -race -count=10 ./internal/workload/
  ;;
migrate)
  go test -race ./internal/ring/
  ;;
torture)
  go test -race -short ./internal/torture/
  # Full size: every test -short skips or shrinks in these packages runs here.
  go test -race -timeout 60m ./internal/core/ ./internal/harness/ ./internal/torture/
  # A device on a closed device's memory must be indistinguishable from one
  # on fresh memory, whatever the closed one wrote; and the device's one
  # image plus slots must match the three-array line model on any history.
  # Minimizing a new input is bounded: unbounded, both workers could spend
  # the rest of the 30 s minimizing and mutate nothing.
  go test -run '^$' -fuzz FuzzDeviceReuse -fuzztime 30s -fuzzminimizetime 2s ./internal/nvm
  go test -run '^$' -fuzz FuzzDeviceHistory -fuzztime 30s -fuzzminimizetime 2s ./internal/nvm
  go build -o "$out/crpmtorture" ./cmd/crpmtorture
  "$out/crpmtorture"
  "$out/crpmtorture" -quick -checksums=false -adversarial
  # One seed does not stand for all: seed 1 hid the inline-log bug.
  for s in $(seq 1 32); do
    "$out/crpmtorture" -backend incll -seed "$s" > "$out/incll_$s.out" || { cat "$out/incll_$s.out"; fail "incll seed $s"; }
  done
  for s in $(seq 1 16); do
    "$out/crpmtorture" -quick -backend all -seed "$s" > "$out/all_$s.out" || { cat "$out/all_$s.out"; fail "all modes, seed $s"; }
  done
  scripts/identity.sh crpmtorture -quick
  ;;
esac
check
echo "ok   scripts/ci.sh $job"
