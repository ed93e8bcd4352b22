//go:build unix && !race

package server

import (
	"runtime"
	"testing"

	"libcrpm/internal/workload"
)

// TestNoKeySpaceCopyOnTheHeap is the host-memory guard of the two places a
// run once copied a shard's key space onto the Go heap: at 100 000 keys with
// two replicas, the clean end-of-run check (every primary and secondary KV
// against its image) and the populate cut's Capture each allocate under
// 256 KiB, where a copy of one shard's pairs or payload is megabytes.
func TestNoKeySpaceCopyOnTheHeap(t *testing.T) {
	const limit = 256 << 10
	cfg := Config{Shards: 2, Clients: 4, Mix: workload.YCSBB, Ops: 4000, Keys: 100_000,
		HeapSize: 16 << 20, Buckets: 1 << 16, Replicas: 2, Seed: 3}

	svc := newService(t, cfg)
	res, err := svc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("run failed its checks: %v", res.Violations)
	}
	check := &Result{}
	alloc := totalAlloc(func() { svc.verifyClean(check) })
	t.Logf("end-of-run check: %d KiB", alloc>>10)
	if len(check.Violations) > 0 {
		t.Fatalf("the check run again found %v", check.Violations)
	}
	if alloc >= limit {
		t.Errorf("the end-of-run check allocated %d KiB on the Go heap, want under %d", alloc>>10, limit>>10)
	}

	// The populate cut's Capture, on shard 0 built and populated as a boot
	// rank builds and populates it.
	s := newService(t, cfg)
	sh := newShardShell(0, s.deviceSize, s.cfg.StepBudget, false)
	s.mapped(sh.dev)
	ctr, err := s.newBackend(sh.dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.init(ctr, s.cfg.DS, s.cfg.Buckets); err != nil {
		t.Fatal(err)
	}
	if err := s.initReplicas(sh); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < s.cfg.Keys; k++ {
		if s.ring.Owner(k) == sh.id {
			if err := sh.kv.Put(k, k); err != nil {
				t.Fatal(err)
			}
		}
	}
	var payload int
	alloc = totalAlloc(func() {
		d, err := sh.reps.Capture(sh.core)
		if err != nil {
			t.Fatal(err)
		}
		payload = len(d.Payload)
	})
	t.Logf("populate capture of a %d KiB payload: %d KiB", payload>>10, alloc>>10)
	if alloc >= limit {
		t.Errorf("capturing the populate cut's %d KiB payload allocated %d KiB on the Go heap, want under %d", payload>>10, alloc>>10, limit>>10)
	}
}

// totalAlloc returns the bytes fn allocated on the Go heap.
func totalAlloc(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
