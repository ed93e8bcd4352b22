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

var quantumSpans = map[string]bool{spanMigInstall: true, spanMigCatchup: true, spanMigResidual: true, spanMigDelete: true}

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
// phases used to stall every arrival of a whole install or delete. The
// residual a flip hands over is no longer inline either: the destination
// pulls it in the next epoch, in quanta like the rest (mig-residual).
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

	var maxCoW, maxQuantum int64
	quanta := 0
	for i := range res.Shards {
		tr := track(t, res, i)
		var cows []obs.Span
		for _, s := range tr.Spans {
			if s.Name == "cow" {
				cows = append(cows, s)
				maxCoW = max(maxCoW, s.Ticks)
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
	t.Logf("open max %d ps with migrations, %d without; largest CoW %d ps, largest CoW-free quantum %d ps over %d quanta",
		got, base, maxCoW, maxQuantum, quanta)
	if got > base+quantumBoundPS+maxCoW {
		t.Fatalf("open latency max %d ps with migrations exceeds the migration-free %d ps by more than a quantum (%d) plus a segment CoW (%d)",
			got, base, quantumBoundPS, maxCoW)
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

// TestFlipCutAppliesNothing: the flip cut hands the span over post-copy.
// The destination takes what the source logged after the catch-up list
// shipped as a pull set and applies it in the next epoch, so no
// mig-residual span overlaps any rank's cut pause, and each flip cut pauses
// no longer than the run's largest migration-free cut.
//
// Every span write reaches the destination exactly once, in one of two
// lists: the catch-up list (what the source logged during the transfer) and
// the residual (everything after it, up to the flip cut). So the two hold,
// entry by entry, the source's span writes from the migration's start
// boundary through the batch the flip cut closed, and the pull set loaded at
// the flip holds each residual key once, as its last entry.
func TestFlipCutAppliesNothing(t *testing.T) {
	for _, open := range []bool{true, false} {
		cfg := openMigCfg()
		if !open {
			cfg.Measure = nil
		}
		cfg.Migrations = []MigrateSpec{
			{Kind: MigrateSplit, Src: 0, AfterCuts: 2},
			{Kind: MigrateMerge, Src: 2, Dst: 1, AfterCuts: 9},
		}
		svc := newService(t, cfg)
		// The split's destination is the merge's source: its pull set is
		// still loaded when the merge takes its snapshot. The merge's is
		// still loaded at the end of the run.
		loaded := map[*migration][]migEnt{}
		svc.beforeSnapshot = func(sh *shard, _ *migration) {
			if n := len(svc.migs); n > 0 {
				loaded[svc.migs[n-1]] = sh.migWork.items
			}
		}
		res, err := svc.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK() {
			t.Fatalf("open %v: violations: %v", open, res.Violations)
		}
		if len(svc.migs) != 2 {
			t.Fatalf("open %v: migrations %+v", open, res.Migrations)
		}
		last := svc.migs[1]
		loaded[last] = svc.shards[last.dst].migWork.items

		type window struct{ lo, hi int64 }
		var pauses, residual, busy []window
		for _, m := range res.Migrations {
			busy = append(busy, window{m.StartPS, m.FlipPS})
		}
		for i := range res.Shards {
			for _, s := range track(t, res, i).Spans {
				switch {
				case s.Name == "ckpt-pause" || s.Name == "ckpt-begin":
					pauses = append(pauses, window{s.Start, s.End})
				case s.Name == spanMigResidual:
					residual = append(residual, window{s.Start, s.End})
					fallthrough
				case quantumSpans[s.Name]:
					busy = append(busy, window{s.Start, s.End})
				}
			}
		}
		for _, r := range residual {
			for _, p := range pauses {
				if r.lo < p.hi && p.lo < r.hi {
					t.Errorf("open %v: mig-residual [%d, %d) overlaps a cut pause [%d, %d)", open, r.lo, r.hi, p.lo, p.hi)
				}
			}
		}
		if len(residual) == 0 {
			t.Errorf("open %v: no mig-residual quantum ran: the pull sets were never drained in quanta", open)
		}

		// A cut is migration-free if the epoch it closed, from the end of
		// the track's previous cut, touched no migration. A flip cut ends
		// where its migration's FlipPS is taken.
		var freeMax int64
		flipPause := map[int64]int64{}
		for i := range res.Shards {
			prevEnd := int64(-1)
			for _, p := range track(t, res, i).Spans {
				if p.Name != "ckpt-pause" {
					continue
				}
				if prevEnd < 0 { // the populate cut
					prevEnd = p.End
					continue
				}
				epoch := window{prevEnd, p.Start}
				prevEnd = p.End
				for _, m := range res.Migrations {
					if p.End == m.FlipPS {
						flipPause[m.FlipPS] = max(flipPause[m.FlipPS], p.Ticks)
					}
				}
				free := true
				for _, b := range busy {
					if b.lo < epoch.hi && epoch.lo < b.hi {
						free = false
					}
				}
				if free {
					freeMax = max(freeMax, p.Ticks)
				}
			}
		}
		if freeMax == 0 || len(flipPause) != 2 {
			t.Fatalf("open %v: largest migration-free cut %d ps, %d flip cuts found: the run proves nothing", open, freeMax, len(flipPause))
		}
		for at, ps := range flipPause {
			t.Logf("open %v: flip cut landing at %d ps paused %d ps; largest migration-free cut %d ps", open, at, ps, freeMax)
			if ps > freeMax {
				t.Errorf("open %v: the flip cut landing at %d ps paused %d ps, longer than the largest migration-free cut (%d ps)", open, at, ps, freeMax)
			}
		}

		for _, m := range svc.migs {
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
			if first <= m.batch+1 {
				t.Fatalf("open %v: %s %d>%d started after batch %d, destination first served the span in batch %d", open, m.kind, m.src, m.dst, m.batch, first)
			}
			want := 0
			for _, n := range writes[m.batch+1 : first] {
				want += n
			}
			t.Logf("open %v: %s %d>%d from batch %d through %d: catch-up %d + residual %d entries, %d span writes",
				open, m.kind, m.src, m.dst, m.batch+1, first-1, len(m.catchup), len(m.residual), want)
			if got := len(m.catchup) + len(m.residual); got != want {
				t.Errorf("open %v: %s %d>%d: the catch-up list and the residual hold %d entries, the source wrote the span %d times",
					open, m.kind, m.src, m.dst, got, want)
			}

			last, got := map[uint64]migEnt{}, map[uint64]migEnt{}
			for _, e := range m.residual {
				last[e.key] = e
			}
			for _, e := range loaded[m] {
				got[e.key] = e
			}
			if len(got) != len(loaded[m]) || !reflect.DeepEqual(got, last) {
				t.Errorf("open %v: %s %d>%d: pull set of %d items over %d keys, the residual has %d distinct keys: want each once, as its last entry",
					open, m.kind, m.src, m.dst, len(loaded[m]), len(got), len(last))
			}
		}
	}
}

// TestPullSettlesOwedState: a destination serving keys its pull set still
// owes answers each request with the state the stream implies. A read or
// read-modify-write applies its key's entry first and a scan the whole set;
// an update or delete drops its key's entry and costs what it costs on a
// shard that owes nothing.
func TestPullSettlesOwedState(t *testing.T) {
	stale := func() *shard {
		sh := newCoreShard(t)
		for k := uint64(1); k <= 6; k++ {
			if err := sh.apply(int(k), workload.Op{Kind: workload.OpInsert, Key: k, Value: k}); err != nil {
				t.Fatal(err)
			}
		}
		return sh
	}
	do := func(sh *shard, seq int, op workload.Op) int64 {
		t.Helper()
		t0 := sh.clock.NowPS()
		if err := sh.apply(seq, op); err != nil {
			t.Fatal(err)
		}
		return sh.clock.NowPS() - t0
	}
	sh, plain := stale(), stale()
	sh.migWork = pullSet([]migEnt{{key: 1, val: 10}, {key: 2, val: 20}, {key: 3, del: true},
		{key: 1, val: 11}, {key: 4, val: 40}, {key: 5, val: 50}, {key: 7, val: 70}})
	if n := len(sh.migWork.items); n != 6 {
		t.Fatalf("pull set of %d items, want 6: the last entry per key", n)
	}

	for i, op := range []workload.Op{{Kind: workload.OpUpdate, Key: 2, Value: 99}, {Kind: workload.OpDelete, Key: 5}} {
		if got, want := do(sh, 10+i, op), do(plain, 10+i, op); got != want {
			t.Errorf("%v of key %d took %d ps, %d on a shard that owes nothing: the owed entry was applied first", op.Kind, op.Key, got, want)
		}
	}
	do(sh, 20, workload.Op{Kind: workload.OpRead, Key: 1})
	if want := readMix(20, 11, true); sh.readSum != want {
		t.Errorf("read of owed key 1 folded %#x into the read sum, want %#x (value 11)", sh.readSum, want)
	}
	do(sh, 21, workload.Op{Kind: workload.OpRMW, Key: 4, Value: 2})
	do(sh, 22, workload.Op{Kind: workload.OpScan, Key: 0, ScanLen: 100})
	if sh.migWork.pending() {
		t.Errorf("a scan left %d keys owed", len(sh.migWork.owed))
	}
	want := map[uint64]uint64{1: 11, 2: 99, 4: 42, 6: 6, 7: 70}
	if got := verifyKV(sh.kv, want); got != nil {
		t.Errorf("KV after the pulls: %q", got)
	}
	if got := verifyKV(sh.kv, sh.shadow.live); got != nil {
		t.Errorf("KV against the oracle: %q", got)
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
			if quantumSpans[s.Name] {
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
