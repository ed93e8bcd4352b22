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
		svc := newService(t, cfg)
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

// TestFlipResidualIsOneRound: while a migration waits flip-ready for its
// cut, the source ships its log to the destination at every round where the
// destination has drained its last list, so the flip cut applies inline
// only what the source logged since the last round the destination had
// drained: the rest of the list shipped at the round before the flip cut,
// and the writes since. Every round here finds the destination drained — a
// list's ship latency and replay take tens of microseconds, against an open
// loop's 2 ms batch window or a closed loop's replay at the round — so that
// is at most the source's span writes in the two batches before the flip
// cut. Cuts are rare (one per sixteen batches), so the migration waits
// flip-ready for rounds on end: a flip cut that applied everything logged
// since catch-up ended would carry many batches of writes.
func TestFlipResidualIsOneRound(t *testing.T) {
	for _, open := range []bool{true, false} {
		cfg := openMigCfg()
		cfg.Trace = false
		cfg.Policy = OpsPolicy{Every: 32768}
		if !open {
			cfg.Measure = nil
		}
		cfg.Migrations = []MigrateSpec{
			{Kind: MigrateSplit, Src: 0, AfterCuts: 2},
			{Kind: MigrateMerge, Src: 2, Dst: 1, AfterCuts: 4},
		}
		svc := newService(t, cfg)
		res, err := svc.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK() {
			t.Fatalf("open %v: violations: %v", open, res.Violations)
		}
		if len(res.Migrations) != 2 {
			t.Fatalf("open %v: migrations %+v", open, res.Migrations)
		}
		for i, m := range svc.migs {
			// Replay the feed: the source's span writes per batch — it logs
			// every one until the flip — and the first batch the destination
			// serves the span in, the one after the flip cut's round.
			var writes []int
			first := -1
			feed := svc.newFeed()
			for b := 0; b < svc.batches; b++ {
				n := 0
				for _, so := range feed.batch(b) {
					if !m.slots[so.slot] {
						continue
					}
					switch so.op.Kind {
					case workload.OpUpdate, workload.OpInsert, workload.OpRMW, workload.OpDelete:
						n++
					}
					if first < 0 && svc.shards[m.dst].appliedBits[so.seq>>6]&(1<<(so.seq&63)) != 0 {
						first = b
					}
				}
				writes = append(writes, n)
			}
			if first < 2 {
				t.Fatalf("open %v: %s %d>%d: destination first served the span in batch %d", open, m.kind, m.src, m.dst, first)
			}
			flipAt := first - 1
			st := res.Migrations[i]
			bound := writes[flipAt-1] + writes[flipAt]
			t.Logf("open %v: %s %d>%d flipped after batch %d: %d ops applied by the flip cut, bound %d, %d catch-up ops in all",
				open, m.kind, m.src, m.dst, flipAt, st.ResidualOps, bound, st.CatchupOps)
			if st.ResidualOps == 0 || st.ResidualOps > bound {
				t.Errorf("open %v: %s %d>%d: the flip cut applied %d ops, want 1..%d (the span writes of the two batches before it)",
					open, m.kind, m.src, m.dst, st.ResidualOps, bound)
			}
		}
	}
}

// TestMergeDestinationCutFlushOpenLoop: the migration quanta's
// write-through scopes also write back the shard's aged request dirt, so a
// merge destination that spends its idle gaps installing does not leave
// that dirt to its own stop-the-world cut. Every cut it takes while the
// install is pending flushes no more than the largest cut of the same run
// that no migration touched.
func TestMergeDestinationCutFlushOpenLoop(t *testing.T) {
	cfg := openMigCfg()
	cfg.Policy = OpsPolicy{Every: 8192}
	cfg.Keys, cfg.HeapSize, cfg.Buckets = 80_000, 16<<20, 1<<16
	cfg.Migrations = []MigrateSpec{
		{Kind: MigrateSplit, Src: 0, AfterCuts: 2},
		{Kind: MigrateMerge, Src: 2, Dst: 1, AfterCuts: 9},
	}
	res := mustRun(t, cfg)
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if len(res.Migrations) != 2 {
		t.Fatalf("migrations: %+v", res.Migrations)
	}
	// busy lists what a migration touches: each one from its start to its
	// flip, and every quantum of migration work on any shard.
	type window struct{ lo, hi int64 }
	var busy []window
	for _, m := range res.Migrations {
		busy = append(busy, window{m.StartPS, m.FlipPS})
	}
	for i := range res.Shards {
		for _, s := range track(t, res, i).Spans {
			if quantumSpans[s.Name] || s.Name == spanMigResidual {
				busy = append(busy, window{s.Start, s.End})
			}
		}
	}
	// cuts yields each serving cut of a track with its flush and the epoch it
	// closed: from the end of the track's previous cut to its start. A
	// track's first cut is the populate cut (a spawned shard's lands inside
	// its install) and closes no served epoch.
	cuts := func(tr obs.Track, fn func(epoch window, pause obs.Span, flushPS int64)) {
		prevEnd := int64(-1)
		for _, p := range tr.Spans {
			if p.Name != "ckpt-pause" {
				continue
			}
			if prevEnd < 0 {
				prevEnd = p.End
				continue
			}
			var flush int64
			for _, s := range tr.Spans {
				if s.Name == "flush" && s.Start >= p.Start && s.End <= p.End {
					flush += s.Ticks
				}
			}
			fn(window{prevEnd, p.Start}, p, flush)
			prevEnd = p.End
		}
	}
	var freeMax int64
	free := 0
	for i := range res.Shards {
		cuts(track(t, res, i), func(epoch window, _ obs.Span, flushPS int64) {
			for _, b := range busy {
				if b.lo < epoch.hi && epoch.lo < b.hi {
					return
				}
			}
			free++
			freeMax = max(freeMax, flushPS)
		})
	}
	m := res.Migrations[1]
	install := window{-1, -1}
	dst := track(t, res, m.Dst)
	for _, s := range dst.Spans {
		if s.Name == spanMigInstall && s.Start > m.StartPS {
			if install.lo < 0 {
				install.lo = s.Start
			}
			install.hi = s.End
		}
	}
	during := 0
	cuts(dst, func(_ window, p obs.Span, flushPS int64) {
		if p.Start < install.lo || p.Start > install.hi {
			return
		}
		during++
		t.Logf("cut at %d ps during the install: flush %d ps", p.Start, flushPS)
		if flushPS > freeMax {
			t.Errorf("merge destination's cut at %d ps flushed for %d ps while installing, the largest migration-free cut %d ps", p.Start, flushPS, freeMax)
		}
	})
	t.Logf("%d migration-free cuts, largest flush %d ps; %d cuts during the install", free, freeMax, during)
	if during == 0 || free == 0 {
		t.Fatalf("%d cuts during the merge's install, %d migration-free: the run proves nothing", during, free)
	}
}
