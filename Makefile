# libcrpm-go developer targets.

GO ?= go

.PHONY: all build test test-short cover bench fuzz results results-medium examples fmt vet loc clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

fuzz:
	$(GO) test -run '^$$' -fuzz FuzzCrashNeverCorruptsFencedData -fuzztime 30s -fuzzminimizetime 2s ./internal/nvm/
	$(GO) test -run '^$$' -fuzz FuzzReadDeviceFrom -fuzztime 30s -fuzzminimizetime 2s ./internal/nvm/
	$(GO) test -run '^$$' -fuzz FuzzDeviceHistory -fuzztime 30s -fuzzminimizetime 2s ./internal/nvm/
	$(GO) test -run '^$$' -fuzz FuzzDeviceReuse -fuzztime 30s -fuzzminimizetime 2s ./internal/nvm/
	$(GO) test -run '^$$' -fuzz FuzzAllocFree -fuzztime 30s -fuzzminimizetime 2s ./internal/alloc/
	$(GO) test -run '^$$' -fuzz FuzzRegionCheck -fuzztime 30s -fuzzminimizetime 2s ./internal/region/

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
