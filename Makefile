# libcrpm-go developer targets.

GO ?= go

.PHONY: all build test test-short race cover bench fuzz torture serve replica elastic results examples fmt vet loc clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./internal/core/ ./internal/mpi/ ./internal/apps/... ./internal/sched/ ./internal/replica/ ./internal/server/ ./internal/torture/ .
	$(GO) test -race -short ./internal/harness/

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

fuzz:
	$(GO) test -fuzz FuzzCrashNeverCorruptsFencedData -fuzztime 30s ./internal/nvm/
	$(GO) test -fuzz FuzzReadDeviceFrom -fuzztime 30s ./internal/nvm/
	$(GO) test -fuzz FuzzAllocFree -fuzztime 30s ./internal/alloc/
	$(GO) test -fuzz FuzzRegionCheck -fuzztime 30s ./internal/region/

# Exhaustive crash-consistency sweep: every crash point under every crash
# policy in every container mode (see DESIGN.md §7).
torture:
	$(GO) test ./internal/torture/
	$(GO) run ./cmd/crpmtorture
	$(GO) run ./cmd/crpmtorture -adversarial -checksums=false
	for s in 1 2 3 4 5 6 7 8; do $(GO) run ./cmd/crpmtorture -backend incll -seed $$s || exit 1; done

# Sharded recoverable KV service smoke: YCSB-A over coordinated per-shard
# checkpoints with full acked-op verification (see DESIGN.md §10).
serve:
	$(GO) run ./cmd/crpmserve -shards 4 -clients 8 -mix a -ops 1000000

# Replication study: race-mode unit sweep over the replica/SLA/failover
# surface, then a kill-primary smoke that crashes shard 1's primary
# mid-serve and promotes its most-current secondary (see DESIGN.md §12).
replica:
	$(GO) test -race ./internal/replica/
	$(GO) test -race -run 'Replica|SLA|Failover|AbortedIncrementalCut|KillPrimary' ./internal/server/ ./internal/mpi/ ./internal/torture/
	$(GO) run ./cmd/crpmserve -shards 4 -clients 8 -mix b -ops 200000 -replicas 2 -sla mix -killprimary 1

# Elastic resharding study: race-mode sweep over the ring, dynamic
# membership, and migration surface, a live split+merge crpmserve run,
# then the before/during/after figure (see DESIGN.md §15).
elastic:
	$(GO) test -race ./internal/ring/
	$(GO) test -race -run 'Ring|Router|Migrat|AutoSplit|Split|Merge|Grow|Leave|Membership' ./internal/server/ ./internal/mpi/
	$(GO) run ./cmd/crpmserve -shards 2 -clients 4 -ops 200000 -policy ops:4096 -migrate 'split:0@2,merge:2>1@6'
	$(GO) run ./cmd/crpmserve -shards 2 -clients 4 -keys 200000 -heap 33554432 -buckets 131072 -ops 1000000 -policy ops:16384 -target 1e6 -warmup 50000 -migrate 'split:0@2,merge:2>1@12'
	$(GO) run ./cmd/crpmbench -exp elastic

# Open-loop latency SLO study: race-mode sweep over the measurement rig,
# a coordinated-omission-free crpmserve run at fixed offered load, then
# the throughput-vs-p99 curve per backend x cut policy (see DESIGN.md §14).
slo:
	$(GO) test -race ./internal/measure/
	$(GO) run ./cmd/crpmserve -shards 4 -clients 8 -mix a -target 4e6 -duration 50ms -warmup 20000 -dist uniform
	$(GO) run ./cmd/crpmbench -exp slo

# Regenerate every table and figure of the paper's evaluation into the
# committed reference (simulated values only: a diff is a behaviour change).
results:
	$(GO) run ./cmd/crpmbench -exp all -scale small -format csv > results/small.csv

results-medium:
	$(GO) run ./cmd/crpmbench -exp all -scale medium

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/kvstore
	$(GO) run ./examples/lulesh
	$(GO) run ./examples/crashtest -trials 8
	$(GO) run ./examples/filestore -reset

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

# Non-blank, non-comment lines of non-test Go outside bench/, per package.
loc:
	scripts/loc.sh

clean:
	$(GO) clean ./...
