package server

import (
	"reflect"
	"testing"

	"libcrpm/internal/measure"
	"libcrpm/internal/obs"
	"libcrpm/internal/workload"
)

// openMigCfg is an open-loop run with idle gaps to spare (1 Mops/s over two
// shards) and enough keys that a migration's bulk work spans many batches.
// Buckets are sized so no table grows: a whole-table rehash is one Put, and
// no quantum can split it.
func openMigCfg() Config {
	return Config{
		Shards:   2,
		Clients:  4,
		Mix:      workload.YCSBA,
		Ops:      150_000,
		Keys:     40_000,
		HeapSize: 8 << 20,
		Buckets:  1 << 15,
		Policy:   OpsPolicy{Every: 8192},
		Seed:     3,
		Measure:  &measure.Config{TargetOps: 1e6, WarmupOps: 5_000},
		Trace:    true,
	}
}

// quantumBoundPS bounds a migration quantum that takes no copy-on-write:
// migQuantumItems puts or deletes, their flush and one fence — a few
// microseconds; 25 leaves room for an item that walks a long chain.
const quantumBoundPS = 25_000_000

var quantumSpans = map[string]bool{spanMigInstall: true, spanMigCatchup: true, spanMigDelete: true}

// track returns shard i's trace track.
func track(t *testing.T, res *Result, i int) obs.Track {
	t.Helper()
	if res.Trace == nil || i >= len(res.Trace.Tracks) {
		t.Fatalf("no trace track for shard %d", i)
	}
	return res.Trace.Tracks[i]
}

// TestMigrationQuantaBoundOpenLoop is the tentpole's latency contract. Under
// an arrival schedule a split and a merge do their bulk work in quanta
// between requests: every quantum that takes no segment copy-on-write is
// small, so no request waits behind more than one quantum and one CoW over
// what the same run without migrations makes it wait — where the inline
// phases used to stall every arrival of a whole install or delete. One piece
// is still inline and is named in the bound: the residual a flip cut applies
// inside its pause (mig-residual), which every rank waits out.
func TestMigrationQuantaBoundOpenLoop(t *testing.T) {
	free := mustRun(t, openMigCfg())
	cfg := openMigCfg()
	cfg.Migrations = []MigrateSpec{
		{Kind: MigrateSplit, Src: 0, AfterCuts: 2},
		{Kind: MigrateMerge, Src: 2, Dst: 1, AfterCuts: 9},
	}
	res := mustRun(t, cfg)
	if !res.OK() || !free.OK() {
		t.Fatalf("violations: %v / %v", res.Violations, free.Violations)
	}
	if len(res.Migrations) != 2 || res.Migrations[1].FlipPS >= res.SimPS {
		t.Fatalf("migrations did not both complete mid-run: %+v (run ends at %d)", res.Migrations, res.SimPS)
	}

	var maxCoW, maxResidual, maxQuantum int64
	quanta := 0
	for i := range res.Shards {
		tr := track(t, res, i)
		var cows []obs.Span
		for _, s := range tr.Spans {
			switch s.Name {
			case "cow":
				cows = append(cows, s)
				maxCoW = max(maxCoW, s.Ticks)
			case spanMigResidual:
				maxResidual = max(maxResidual, s.Ticks)
			}
		}
		for _, s := range tr.Spans {
			if !quantumSpans[s.Name] {
				continue
			}
			quanta++
			inCoW := false
			for _, c := range cows {
				if c.Start >= s.Start && c.End <= s.End {
					inCoW = true
				}
			}
			if inCoW {
				continue
			}
			maxQuantum = max(maxQuantum, s.Ticks)
			if s.Ticks > quantumBoundPS {
				t.Errorf("shard %d: %s quantum of %d ps with no copy-on-write inside (bound %d)", i, s.Name, s.Ticks, quantumBoundPS)
			}
		}
	}
	// 10 000 keys move twice, each installed once and deleted once.
	if want := 4 * res.Migrations[0].MovedKeys / migQuantumItems; quanta < want {
		t.Fatalf("%d quanta for %d moved keys: the work did not run in quanta", quanta, res.Migrations[0].MovedKeys)
	}
	got, base := res.Measure.OpenAll.MaxPS, free.Measure.OpenAll.MaxPS
	t.Logf("open max %d ps with migrations, %d without; largest CoW %d ps, largest flip residual %d ps, largest CoW-free quantum %d ps over %d quanta",
		got, base, maxCoW, maxResidual, maxQuantum, quanta)
	if got > base+quantumBoundPS+maxCoW+maxResidual {
		t.Fatalf("open latency max %d ps with migrations exceeds the migration-free %d ps by more than a quantum (%d) plus a segment CoW (%d) plus a flip cut's inline residual (%d)",
			got, base, quantumBoundPS, maxCoW, maxResidual)
	}
}

// TestMigrationQuantumSizeIsInvisible: the size of a quantum decides when
// work happens, never what it does. The same open-loop run with every
// quantum retiring all the work there is ends with the same keys on the
// same shards, the same ring and the same transfer sizes.
func TestMigrationQuantumSizeIsInvisible(t *testing.T) {
	cfg := openMigCfg()
	cfg.Ops, cfg.Trace = 100_000, false
	cfg.Migrations = []MigrateSpec{
		{Kind: MigrateSplit, Src: 0, AfterCuts: 2},
		{Kind: MigrateMerge, Src: 2, Dst: 1, AfterCuts: 7},
	}
	run := func(whole bool) (*Service, *Result) {
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		svc.wholeQuanta = whole
		res, err := svc.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK() {
			t.Fatalf("whole=%v: violations: %v", whole, res.Violations)
		}
		return svc, res
	}
	a, ra := run(false)
	b, rb := run(true)
	if len(a.shards) != len(b.shards) {
		t.Fatalf("shard counts %d / %d", len(a.shards), len(b.shards))
	}
	for i := range a.shards {
		// Run verified each KV against its shadow: comparing shadows compares
		// KV contents.
		if !reflect.DeepEqual(a.shards[i].shadow.live, b.shards[i].shadow.live) {
			t.Errorf("shard %d holds different keys in quanta and whole", i)
		}
		if a.shards[i].retired != b.shards[i].retired {
			t.Errorf("shard %d retired %v / %v", i, a.shards[i].retired, b.shards[i].retired)
		}
		if a.shards[i].retired {
			continue
		}
		if !reflect.DeepEqual(a.shards[i].ring.Table(), b.shards[i].ring.Table()) {
			t.Errorf("shard %d ends on a different ring", i)
		}
	}
	if len(ra.Migrations) != 2 || len(rb.Migrations) != 2 {
		t.Fatalf("migrations %+v / %+v", ra.Migrations, rb.Migrations)
	}
	for i := range ra.Migrations {
		if ra.Migrations[i].MovedKeys != rb.Migrations[i].MovedKeys || ra.Migrations[i].SlotCount != rb.Migrations[i].SlotCount {
			t.Errorf("migration %d moved %d keys / %d slots in quanta, %d / %d whole", i,
				ra.Migrations[i].MovedKeys, ra.Migrations[i].SlotCount, rb.Migrations[i].MovedKeys, rb.Migrations[i].SlotCount)
		}
	}
}

// lastDeleteEnd is when shard's last delete quantum ended.
func lastDeleteEnd(t *testing.T, res *Result, shard int) int64 {
	t.Helper()
	var end int64
	for _, s := range track(t, res, shard).Spans {
		if s.Name == spanMigDelete {
			end = max(end, s.End)
		}
	}
	if end == 0 {
		t.Fatalf("shard %d ran no delete quanta", shard)
	}
	return end
}

// TestMergeSourceRetiresAfterCleanupCommits pins one half of the fifth
// phase: the source's deletes outlive the flip cut by design, and a retired
// shard recovers on its own, to whatever it last committed — so a merge
// source may leave the world only once a later cut has committed its last
// delete quantum. Cuts are rare here (one per sixteen batches, twice what
// the cleanup takes), so a source that left as soon as its cleanup drained
// would leave uncommitted.
func TestMergeSourceRetiresAfterCleanupCommits(t *testing.T) {
	cfg := openMigCfg()
	cfg.Policy = OpsPolicy{Every: 32768}
	cfg.Migrations = []MigrateSpec{{Kind: MigrateMerge, Src: 1, Dst: 0, AfterCuts: 2}}
	res := mustRun(t, cfg)
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	left := res.Shards[1].SimPS // a retired shard's clock stops at its departure
	if left >= res.SimPS {
		t.Fatalf("merge source never retired (its clock %d, the run's %d)", left, res.SimPS)
	}
	done := lastDeleteEnd(t, res, 1)
	for _, s := range track(t, res, 1).Spans {
		if s.Name == "ckpt-pause" && s.Start >= done && s.End <= left {
			return
		}
	}
	t.Fatalf("merge source left at %d ps with no cut between its last delete quantum (%d ps) and its departure", left, done)
}

// TestNextMigrationWaitsForCleanup pins the other half: the next migration
// waits for the previous source's cleanup to drain, even when its AfterCuts
// trigger fired long before.
func TestNextMigrationWaitsForCleanup(t *testing.T) {
	cfg := openMigCfg()
	cfg.Policy = OpsPolicy{Every: 4096} // cuts outpace the cleanup
	cfg.Migrations = []MigrateSpec{
		{Kind: MigrateSplit, Src: 0, AfterCuts: 2},
		{Kind: MigrateMerge, Src: 2, Dst: 1, AfterCuts: 3},
	}
	res := mustRun(t, cfg)
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if len(res.Migrations) != 2 {
		t.Fatalf("migrations: %+v", res.Migrations)
	}
	// The split's source is shard 0. Cuts must have landed while its cleanup
	// was pending — the merge's trigger had fired — or the run proves nothing.
	cleanupEnd := lastDeleteEnd(t, res, 0)
	cutsDuring := 0
	for _, s := range track(t, res, 0).Spans {
		if s.Name == "ckpt-pause" && s.End > res.Migrations[0].FlipPS && s.End < cleanupEnd {
			cutsDuring++
		}
	}
	if cutsDuring == 0 {
		t.Fatal("no cut landed during the split's cleanup: the hold was never exercised")
	}
	if start := res.Migrations[1].StartPS; start < cleanupEnd {
		t.Fatalf("merge started at %d ps, before the split's cleanup drained at %d ps", start, cleanupEnd)
	}
}
