package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"libcrpm/internal/nvm"
	"libcrpm/internal/obs"
	"libcrpm/internal/region"
)

// wtStep is one action of a write-through script.
type wtStep struct {
	kind wtKind
	off  int
	val  uint64
}

type wtKind uint8

const (
	wtStore      wtKind = iota
	wtStoreWide         // a store of val%600+200 bytes: two to four blocks, at times two segments
	wtBegin             // BeginWriteThrough
	wtEnd               // EndWriteThrough
	wtCheckpoint        // monolithic, outside any scope; finishes a deferred replay it finds
	wtIncBegin          // CheckpointBegin; scopes are inert until wtIncFinish
	wtIncStep           // one small quantum
	wtIncFinish         // drain, commit, drain the replay
	wtPreFlush          // PreFlush with a budget of val picoseconds
	wtDefer             // DeferCoW: val&1 not serving yet, val&2 told of idle time to spare, else none
	wtStepCoW           // StepCoW with a gap of val picoseconds; no gap drains
)

// wtStepsPerCut is the number of stores and scope edges between two cuts.
const wtStepsPerCut = 14

// wtBudgets are the pre-flush budgets and replay gaps a script draws from:
// nothing, less than a fence, a fence and a block or two, and room for
// everything.
var wtBudgets = []uint64{0, 100_000, 400_000, 700_000, 50_000_000}

// buildWTScript interleaves scoped and unscoped stores and pre-flushes of
// random budgets — in and out of scopes — with monolithic and incremental
// checkpoints, and after most cuts defers the new epoch's copy-on-write and
// retires it in gaps of random length between the stores, so that single-
// and multi-block stores land inside and outside the quarantine, scopes and
// pre-flushes run beside a replay, and both kinds of checkpoint find one
// unfinished. Stores cluster on a few segments so scoped, pre-flushed, staged
// and plain stores keep hitting the same blocks — the case the skip invariant
// is about — and come in pairs half the time, the second through the write
// hook's last-block memo.
func buildWTScript(rng *rand.Rand, heapSize, cuts int) []wtStep {
	var script []wtStep
	inScope := false
	store := func() {
		seg := rng.Intn(4)
		off := (seg*4096 + rng.Intn(4096/8)*8) % (heapSize - 8)
		script = append(script, wtStep{kind: wtStore, off: off, val: rng.Uint64()})
		switch rng.Intn(4) {
		case 0:
			script = append(script, wtStep{kind: wtStore, off: off, val: rng.Uint64()})
		case 1:
			// Segments 0..4: the last one is written by these alone.
			wide := (seg*4096 + 4096 - 256*rng.Intn(8) - 8*rng.Intn(32)) % (heapSize - 800)
			script = append(script, wtStep{kind: wtStoreWide, off: wide, val: rng.Uint64()})
		}
	}
	gap := func(kind wtKind) {
		script = append(script, wtStep{kind: kind, val: wtBudgets[rng.Intn(len(wtBudgets))]})
	}
	for cut := 0; cut < cuts; cut++ {
		replaying := cut > 0 && rng.Intn(4) > 0
		if replaying {
			script = append(script, wtStep{kind: wtDefer, val: uint64(rng.Intn(4))})
		}
		for i := 0; i < wtStepsPerCut; i++ {
			switch r := rng.Intn(12); {
			case r < 2 && !inScope:
				script = append(script, wtStep{kind: wtBegin})
				inScope = true
			case r < 4 && inScope:
				script = append(script, wtStep{kind: wtEnd})
				inScope = false
			case r >= 10:
				gap(wtPreFlush)
			case r >= 8 && replaying:
				gap(wtStepCoW)
			default:
				store()
			}
		}
		if inScope {
			script = append(script, wtStep{kind: wtEnd})
			inScope = false
		}
		if cut%3 != 2 {
			script = append(script, wtStep{kind: wtCheckpoint})
			continue
		}
		// An incremental cut with scoped and unscoped stores landing while
		// it is in flight.
		script = append(script, wtStep{kind: wtIncBegin})
		for i := 0; i < 4; i++ {
			script = append(script, wtStep{kind: wtBegin})
			store()
			store()
			script = append(script, wtStep{kind: wtEnd}, wtStep{kind: wtIncStep})
			store()
			gap(wtPreFlush) // inert: the pipeline owns the flush
		}
		script = append(script, wtStep{kind: wtIncFinish})
	}
	return script
}

// auditWT checks the bookkeeping invariants the checkpoint's accounting
// leans on. Every marked block is a dirty block of a dirty segment. And a
// store staged behind the write barrier stays out of all of it until its
// lift: while its segment is quarantined the segment is not dirty, the block
// carries no mark, and the media still hold the image taken aside — the store
// has reached nothing a crash could keep.
func auditWT(c *Container) {
	bps, blk := c.l.BlocksPerSeg(), c.l.BlkSize
	if c.pre != nil {
		if c.wtOn != (c.wt || c.pre.Any()) {
			panic(fmt.Sprintf("wtOn=%v with wt=%v and %d marks", c.wtOn, c.wt, c.pre.Count()))
		}
		c.pre.ForEach(func(b int) {
			if !c.dirtyBlocks.Test(b) || !c.dirtySegs.Test(b/bps) {
				panic(fmt.Sprintf("block %d is marked written-through but not dirty this epoch", b))
			}
		})
	}
	inc := c.inc
	if inc == nil || inc.staged == nil || !inc.staged.Any() {
		return
	}
	media := c.dev.MediaSnapshot()
	inc.staged.ForEach(func(b int) {
		if !inc.cutSegs.Test(b / bps) {
			return // flipped: the lift is all that is left
		}
		if inc.deferred && c.dirtySegs.Test(b/bps) {
			panic(fmt.Sprintf("block %d is staged, yet its quarantined segment counts as dirty", b))
		}
		if c.pre != nil && c.pre.Test(b) {
			panic(fmt.Sprintf("block %d is staged and marked written-through", b))
		}
		off := c.l.HeapToDevice(b * blk)
		if !bytes.Equal(media[off:off+blk], inc.aside[b]) {
			panic(fmt.Sprintf("block %d is staged, yet the media no longer hold the image taken aside", b))
		}
	})
}

// runWTScript executes the script, recording in shadows the state each
// epoch commits: the working state at the moment its checkpoint began
// (Checkpoint or CheckpointBegin). audit additionally checks the invariants
// after every step, that every kind of checkpoint leaves no marks and no
// replay, that no pre-flush outspends its budget, that a deferral takes no
// backup from anyone, and that a replay quantum always retires something.
// It returns the number of deferrals the gate declined.
func runWTScript(c *Container, script []wtStep, shadows map[uint64][]byte, audit bool) (declined int) {
	c.preLag = 2 // the test heap has 256 blocks, the shipped lag would keep them all
	shadows[0] = make([]byte, c.Size())
	epoch := c.CommittedEpoch()
	snap := func() {
		img := make([]byte, c.Size())
		copy(img, c.Bytes())
		shadows[epoch+1] = img
	}
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	for _, st := range script {
		switch st.kind {
		case wtStore:
			writeU64(c, st.off, st.val)
		case wtStoreWide:
			buf := make([]byte, st.val%600+200)
			for i := range buf {
				buf[i] = byte(st.val >> (i % 8 * 8))
			}
			c.OnWrite(st.off, len(buf))
			c.Write(st.off, buf)
		case wtBegin:
			c.BeginWriteThrough()
		case wtEnd:
			c.EndWriteThrough()
		case wtPreFlush:
			t0 := c.dev.Clock().NowPS()
			c.PreFlush(int64(st.val))
			if spent := c.dev.Clock().NowPS() - t0; audit && spent > int64(st.val) {
				panic(fmt.Sprintf("pre-flush spent %d ps of a %d ps budget", spent, st.val))
			}
		case wtDefer:
			idle := int64(0)
			switch {
			case st.val&1 != 0:
				idle = foreverPS
			case st.val&2 != 0:
				idle = 1 << 40
			}
			pairs := slices.Clone(c.mainToBackup)
			if !c.DeferCoW(idle) {
				declined++
			}
			if audit && !slices.Equal(pairs, c.mainToBackup) {
				panic("scheduling a deferred copy-on-write changed a pairing")
			}
		case wtStepCoW:
			before, copied := 0, c.cowBytes
			if c.inc != nil {
				before = c.inc.replayRem + c.inc.liftRem
			}
			rem := c.StepCoW(int64(st.val))
			if audit && before > 0 && st.val > 0 && rem >= before && c.cowBytes == copied {
				panic(fmt.Sprintf("a replay quantum in a gap of %d ps copied nothing and left %d of %d bytes", st.val, rem, before))
			}
		case wtCheckpoint:
			snap()
			must(c.Checkpoint())
			epoch++
		case wtIncBegin:
			snap()
			must(c.CheckpointBegin())
		case wtIncStep:
			_, err := c.CheckpointStep(512)
			must(err)
		case wtIncFinish:
			must(c.CheckpointCommit())
			epoch++
			must(c.CheckpointFinish())
		}
		if audit {
			auditWT(c)
			if st.kind == wtCheckpoint || st.kind == wtIncBegin {
				if c.wtOn {
					panic("marks survived a checkpoint")
				}
				if c.inc != nil && c.inc.deferred {
					panic("a deferred replay survived a checkpoint")
				}
			}
		}
	}
	return declined
}

// wtCrashPolicies are the crash images the properties below run under.
var wtCrashPolicies = []struct {
	name string
	make func(seed int64) nvm.CrashPolicy
}{
	{"persist-all", func(int64) nvm.CrashPolicy { return nvm.PersistAll }},
	{"drop-all", func(int64) nvm.CrashPolicy { return nvm.DropAll }},
	{"alternating-0", func(int64) nvm.CrashPolicy { return nvm.Alternating(0) }},
	{"alternating-1", func(int64) nvm.CrashPolicy { return nvm.Alternating(1) }},
	{"seeded", func(seed int64) nvm.CrashPolicy { return nvm.SeededCrash(rand.New(rand.NewSource(seed))) }},
}

// crashesWithin arms a power failure after n more device primitives, runs
// fn, and reports whether the failure fired inside it.
func crashesWithin(dev *nvm.Device, n int64, fn func()) (crashed bool) {
	defer func() {
		dev.FailAfter(-1)
		if r := recover(); r != nil {
			if _, ok := r.(nvm.InjectedCrash); !ok {
				panic(r)
			}
			crashed = true
		}
	}()
	dev.FailAfter(n)
	fn()
	return false
}

// TestWriteThroughCrashProperty is the safety property of everything that
// moves a checkpoint's work into idle time: over random interleavings of
// scoped and unscoped stores, pre-flushes of random budgets, deferred
// copy-on-write retired in gaps of random length, monolithic and incremental
// checkpoints, with a crash at strided primitives through all of it — the
// scopes' and the pre-flushes' flushes and fences, the replay's copies, flips
// and lifts, the checkpoints that finish a replay — under every crash-image
// policy and both metadata formats, recovery lands exactly on the committed
// image.
func TestWriteThroughCrashProperty(t *testing.T) {
	points := 120
	if testing.Short() {
		points = 12
	}
	for _, checksums := range []bool{false, true} {
		for _, pol := range wtCrashPolicies {
			t.Run(fmt.Sprintf("checksums=%v/%s", checksums, pol.name), func(t *testing.T) {
				opts := incOpts(ModeDefault)
				opts.Region.Checksums = checksums
				script := buildWTScript(rand.New(rand.NewSource(99)), opts.Region.HeapSize, 9)

				refDev, refC := newTestContainer(t, opts)
				rec := obs.NewRecorder(refDev.Clock())
				refC.SetTrace(rec)
				base := refDev.PrimitiveCount()
				declined := runWTScript(refC, script, map[uint64][]byte{}, true)
				total := refDev.PrimitiveCount() - base
				if refC.metrics.CheckpointBytes == 0 {
					t.Fatal("reference run checkpointed nothing")
				}
				if counter(rec, "ckpt/pre_flush_bytes") == 0 || counter(rec, "ckpt/write_through_bytes") == 0 {
					t.Fatal("reference run never flushed ahead of a cut, by scope or by pre-flush")
				}
				if counter(rec, "ckpt/deferred_cow_bytes") == 0 || counter(rec, "ckpt/deferred_drained_bytes") == 0 {
					t.Fatal("reference run never deferred a copy-on-write, or no checkpoint ever found one unfinished")
				}
				gaps := 0
				for _, sp := range rec.Snapshot("").Spans {
					if sp.Name == "ckpt-replay" && sp.Depth == 0 {
						gaps++
					}
				}
				if gaps == 0 || declined == 0 {
					t.Fatalf("reference run retired %d replay quanta in gaps and its gate declined %d deferrals: want both", gaps, declined)
				}

				rng := rand.New(rand.NewSource(5))
				stride := total/int64(points) + 1
				for k := int64(0); k < total; k += stride {
					at := k + rng.Int63n(stride)
					dev, c := newTestContainer(t, opts)
					shadows := map[uint64][]byte{}
					if !crashesWithin(dev, at, func() { runWTScript(c, script, shadows, false) }) {
						break
					}
					dev.CrashWith(pol.make(at))
					c2, err := OpenContainer(dev, opts)
					if err != nil {
						t.Fatalf("crash at %d: reopen: %v", at, err)
					}
					want, ok := shadows[c2.CommittedEpoch()]
					if !ok {
						t.Fatalf("crash at %d: recovered to epoch %d, never begun", at, c2.CommittedEpoch())
					}
					if !bytes.Equal(c2.Bytes(), want) {
						d := firstDiff(c2.Bytes(), want)
						t.Fatalf("crash at %d: recovered state differs from committed epoch %d at offset %d", at, c2.CommittedEpoch(), d)
					}
					// The recovered container carries no marks over: a scoped
					// and an unscoped store both survive its next checkpoint.
					c2.BeginWriteThrough()
					writeU64(c2, 0, 0x1111)
					c2.EndWriteThrough()
					writeU64(c2, 0, 0x2222)
					writeU64(c2, 4096, 0x3333)
					if err := c2.Checkpoint(); err != nil {
						t.Fatalf("crash at %d: post-recovery checkpoint: %v", at, err)
					}
					dev.CrashDropAll()
					c3, err := OpenContainer(dev, opts)
					if err != nil {
						t.Fatal(err)
					}
					if a, b := readU64(c3, 0), readU64(c3, 4096); a != 0x2222 || b != 0x3333 {
						t.Fatalf("crash at %d: post-recovery epoch lost (%#x, %#x)", at, a, b)
					}
				}
			})
		}
	}
}

// counter reads one counter off a recorder (0 if never counted).
func counter(rec *obs.Recorder, name string) int64 {
	for _, cn := range rec.Snapshot("").Counters {
		if cn.Name == name {
			return cn.Value
		}
	}
	return 0
}

// TestWriteThroughCheckpointSkipsScopeBlocks: a checkpoint right after a
// scope, or after a pre-flush with room for everything, finds the blocks
// durable and flushes none of them, and commits their content all the same.
func TestWriteThroughCheckpointSkipsScopeBlocks(t *testing.T) {
	const plain, scoped, preFlushed = 0, 1, 2
	run := func(how int) (flushTicks, dirtyBytes int64, dev *nvm.Device, opts Options) {
		opts = smallOpts(ModeDefault)
		dev, c := newTestContainer(t, opts)
		rec := obs.NewRecorder(dev.Clock())
		c.SetTrace(rec)
		c.preLag = 0
		switch how {
		case scoped:
			c.BeginWriteThrough()
		case preFlushed:
			c.PreFlush(0) // from here on the hook queues what it dirties
		}
		for i := 0; i < 40; i++ {
			writeU64(c, (i*7%64)*512, uint64(i)+1)
		}
		switch how {
		case scoped:
			c.EndWriteThrough()
		case preFlushed:
			c.PreFlush(1 << 40)
			if got := counter(rec, "ckpt/pre_flush_bytes"); got != 40*256 {
				t.Fatalf("pre-flush wrote back %d bytes, want the 40 dirty blocks", got)
			}
		}
		if how != plain {
			if n := dev.DirtyLineCount(); n != 0 {
				t.Fatalf("%d dirty lines left after the early write-back's fence", n)
			}
		}
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for _, s := range rec.Snapshot("").Spans {
			if s.Name == "flush" {
				flushTicks += s.Ticks
			}
		}
		return flushTicks, counter(rec, "ckpt/dirty_bytes"), dev, opts
	}
	plainTicks, plainBytes, _, _ := run(plain)
	if plainTicks == 0 || plainBytes == 0 {
		t.Fatalf("control checkpoint flushed nothing (%d ps, %d bytes)", plainTicks, plainBytes)
	}
	for _, how := range []int{scoped, preFlushed} {
		ticks, dirty, dev, opts := run(how)
		if ticks != 0 || dirty != 0 {
			t.Fatalf("how=%d: checkpoint flushed %d ps / %d bytes of blocks already written back, want none", how, ticks, dirty)
		}
		dev.CrashDropAll()
		c2, err := OpenContainer(dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			if got := readU64(c2, (i*7%64)*512); got == 0 {
				t.Fatalf("how=%d: store %d lost across the skipping checkpoint", how, i)
			}
		}
	}
}

// TestWriteThroughLaterStoreIsFlushedAgain: a store that lands after its
// block was written back early — by a scope or by a pre-flush — clears the
// mark, so the next checkpoint flushes the block again — also when it is the
// very block the write hook last saw, which the last-block memo would
// otherwise wave through.
func TestWriteThroughLaterStoreIsFlushedAgain(t *testing.T) {
	for _, preFlush := range []bool{false, true} {
		for _, other := range []bool{false, true} {
			for _, replaying := range []bool{false, true} {
				// No eager copy-on-write: it would copy the working content into
				// the backup after the commit and hide a skipped flush.
				opts := incOpts(ModeDefault)
				dev, c := newTestContainer(t, opts)
				if replaying {
					// A deferred replay pending elsewhere: the stores below go
					// through the write barrier's pass-through path, which owes
					// the marks the same bookkeeping.
					writeU64(c, 5*4096, 5)
					if err := c.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					c.DeferCoW(foreverPS)
				}
				if preFlush {
					c.preLag = 0
					c.PreFlush(0)
				} else {
					c.BeginWriteThrough()
				}
				writeU64(c, 512, 1)
				writeU64(c, 8192, 1)
				if preFlush {
					c.PreFlush(1 << 40)
				} else {
					c.EndWriteThrough()
				}
				if n := c.pre.Count(); n != 2 {
					t.Fatalf("preFlush=%v replaying=%v: %d blocks marked, want both", preFlush, replaying, n)
				}
				if other {
					writeU64(c, 512, 2) // not the last block stored
				}
				writeU64(c, 8192, 2) // the last block stored: the memo's candidate
				if (c.inc != nil) != replaying {
					t.Fatalf("replaying=%v, replay in flight %v", replaying, c.inc != nil)
				}
				if err := c.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				dev.CrashDropAll()
				c2, err := OpenContainer(dev, opts)
				if err != nil {
					t.Fatal(err)
				}
				want512 := uint64(1)
				if other {
					want512 = 2
				}
				if a, b := readU64(c2, 512), readU64(c2, 8192); a != want512 || b != 2 {
					t.Fatalf("preFlush=%v other=%v replaying=%v: committed (%d, %d), want (%d, 2): a store after the early write-back's fence was skipped",
						preFlush, other, replaying, a, b, want512)
				}
			}
		}
	}
}

// TestWriteThroughInert: in buffered mode, and between CheckpointBegin and
// the end of the pipeline, a scope or a pre-flush changes nothing — the same
// primitives, the same clock, as the same stores without it. Nor does a
// pre-flush inside an open scope, which owes its blocks their flush itself.
func TestWriteThroughInert(t *testing.T) {
	const none, scoped, preFlushed, preFlushedInScope = 0, 1, 2, 3
	run := func(mode Mode, inFlight bool, how int) (int64, int64) {
		opts := incOpts(mode)
		dev, c := newTestContainer(t, opts)
		c.preLag = 0
		for i := 0; i < 16; i++ {
			writeU64(c, i*1024, 7)
		}
		if inFlight {
			if err := c.CheckpointBegin(); err != nil {
				t.Fatal(err)
			}
		}
		if how == scoped || how == preFlushedInScope {
			c.BeginWriteThrough()
		}
		for i := 0; i < 24; i++ {
			writeU64(c, i*640, uint64(i))
			if how == preFlushed || how == preFlushedInScope {
				c.PreFlush(1 << 40)
			}
		}
		if how == scoped || how == preFlushedInScope {
			c.EndWriteThrough()
		}
		if inFlight {
			if err := c.CheckpointCommit(); err != nil {
				t.Fatal(err)
			}
			if err := c.CheckpointFinish(); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		return dev.PrimitiveCount(), dev.Clock().NowPS()
	}
	for _, tc := range []struct {
		name          string
		mode          Mode
		inFlight      bool
		control, with int
	}{
		{"buffered scope", ModeBuffered, false, none, scoped},
		{"buffered pre-flush", ModeBuffered, false, none, preFlushed},
		{"buffered-in-flight scope", ModeBuffered, true, none, scoped},
		{"default-in-flight scope", ModeDefault, true, none, scoped},
		{"default-in-flight pre-flush", ModeDefault, true, none, preFlushed},
		{"default pre-flush in scope", ModeDefault, false, scoped, preFlushedInScope},
	} {
		p0, t0 := run(tc.mode, tc.inFlight, tc.control)
		p1, t1 := run(tc.mode, tc.inFlight, tc.with)
		if p0 != p1 || t0 != t1 {
			t.Errorf("%s: not inert: %d primitives / %d ps without, %d / %d with", tc.name, p0, t0, p1, t1)
		}
	}
	// The control: in default mode with no cut in flight both do work.
	p0, _ := run(ModeDefault, false, none)
	for _, how := range []int{scoped, preFlushed} {
		if p1, _ := run(ModeDefault, false, how); p0 == p1 {
			t.Errorf("how=%d: default-mode early write-back issued no primitives of its own", how)
		}
	}
}

// TestWriteThroughRejectsCheckpointInScope: a checkpoint inside an open
// scope would commit blocks the scope still owes a flush.
func TestWriteThroughRejectsCheckpointInScope(t *testing.T) {
	_, c := newTestContainer(t, incOpts(ModeDefault))
	c.BeginWriteThrough()
	writeU64(c, 0, 1)
	if err := c.Checkpoint(); err == nil {
		t.Fatal("Checkpoint inside a scope accepted")
	}
	if err := c.CheckpointBegin(); err == nil {
		t.Fatal("CheckpointBegin inside a scope accepted")
	}
	c.EndWriteThrough()
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// TestPreFlushFitsBudget: a pre-flush is bounded from above by the cost
// model, never by luck. A budget below one block and a fence issues no
// primitive at all; any other budget is never outspent, lines already
// pending at the device included; and room for everything flushes
// everything that is older than the lag.
func TestPreFlushFitsBudget(t *testing.T) {
	opts := smallOpts(ModeDefault)
	dev, c := newTestContainer(t, opts)
	c.preLag = 0
	c.PreFlush(0)
	dirty := func(n int) {
		for i := 0; i < n; i++ {
			writeU64(c, i*256, uint64(i)+1)
		}
	}
	dirty(64)
	cost := dev.Cost()
	lines := int64(opts.Region.BlockSize / nvm.LineSize)
	oneBlock := cost.SFencePS + lines*(cost.CLWBPS+cost.SFenceLinePS)
	for _, budget := range []int64{-5, 0, cost.SFencePS, oneBlock - 1} {
		p0, t0 := dev.PrimitiveCount(), dev.Clock().NowPS()
		c.PreFlush(budget)
		if p, now := dev.PrimitiveCount(), dev.Clock().NowPS(); p != p0 || now != t0 {
			t.Fatalf("budget %d ps (one block needs %d): %d primitives, %d ps spent, want none", budget, oneBlock, p-p0, now-t0)
		}
	}
	c.PreFlush(oneBlock)
	if n := c.pre.Count(); n != 1 || !c.pre.Test(0) {
		t.Fatalf("a budget of exactly one block and a fence marked %d blocks (oldest marked: %v)", n, c.pre.Test(0))
	}

	// The tight case: every line of ten blocks dirty, three lines of someone
	// else's flushed and not yet fenced, and a budget of exactly ten blocks
	// and a bare fence. The fence drains the strangers too, so only nine fit.
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for b := 100; b < 110; b++ {
		for l := 0; l < int(lines); l++ {
			writeU64(c, b*256+l*nvm.LineSize, 7)
		}
	}
	for l := 0; l < 3; l++ {
		off := c.l.HeapToDevice(200*256 + l*nvm.LineSize)
		dev.Store(off, []byte{1})
		dev.CLWB(off)
	}
	tight := cost.SFencePS + 10*lines*(cost.CLWBPS+cost.SFenceLinePS)
	t0 := dev.Clock().NowPS()
	c.PreFlush(tight)
	if spent, n := dev.Clock().NowPS()-t0, c.pre.Count(); spent > tight || n != 9 {
		t.Fatalf("tight budget of %d ps: spent %d, wrote back %d blocks, want 9 within budget", tight, spent, n)
	}

	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 200; round++ {
		dirty(1 + rng.Intn(64))
		if round%3 == 0 {
			// A flushed, unfenced line of someone else's: the fence will
			// drain it on this quantum's bill.
			off := c.l.HeapToDevice(200*256 + rng.Intn(8)*64)
			dev.Store(off, []byte{byte(round) | 1})
			dev.CLWB(off)
		}
		budget := rng.Int63n(3 * oneBlock)
		if round%5 == 0 {
			budget = rng.Int63n(80 * oneBlock)
		}
		t0 := dev.Clock().NowPS()
		c.PreFlush(budget)
		if spent := dev.Clock().NowPS() - t0; spent > budget {
			t.Fatalf("round %d: spent %d ps of a %d ps budget", round, spent, budget)
		}
		auditWT(c)
	}
	dirty(64)
	c.PreFlush(1 << 40)
	if _, blocks := c.DirtyInfo(); c.pre.Count() != blocks {
		t.Fatalf("an unbounded budget marked %d of %d dirty blocks", c.pre.Count(), blocks)
	}
}

// TestPreFlushOldestFirstBehindLag: the queue hands out blocks in the order
// they were dirtied, and the youngest preLag of them are left alone — below
// the shipped lag nothing is flushed at all.
func TestPreFlushOldestFirstBehindLag(t *testing.T) {
	dev, c := newTestContainer(t, smallOpts(ModeDefault))
	if c.preLag != preFlushLag {
		t.Fatalf("a fresh container lags %d entries, want the constant %d", c.preLag, preFlushLag)
	}
	c.PreFlush(0)
	order := rand.New(rand.NewSource(11)).Perm(100)
	for _, b := range order {
		writeU64(c, b*256, 1)
	}
	p0 := dev.PrimitiveCount()
	c.PreFlush(1 << 40)
	if dev.PrimitiveCount() != p0 {
		t.Fatalf("%d dirty blocks, fewer than the lag of %d, yet a pre-flush issued primitives", len(order), preFlushLag)
	}
	c.preLag = 30
	c.PreFlush(1 << 40)
	for i, b := range order {
		if got, want := c.pre.Test(b), i < len(order)-30; got != want {
			t.Fatalf("block dirtied %d-th of %d: marked=%v, want %v with a lag of 30", i, len(order), got, want)
		}
	}
	// A re-stored block goes to the back of the queue: it is young again.
	writeU64(c, order[0]*256+8, 2)
	c.PreFlush(1 << 40)
	if c.pre.Test(order[0]) {
		t.Fatal("a block re-stored a moment ago was written back ahead of the lag")
	}
	c.preLag = 0
	c.PreFlush(1 << 40)
	if n := c.pre.Count(); n != len(order) {
		t.Fatalf("%d of %d blocks marked with no lag", n, len(order))
	}
}

// preCopyFixture commits three segments' worth of state and leaves the
// container at the start of the next epoch: two segments paired by an
// earlier epoch and owing a differential copy, one never paired.
func preCopyFixture(t *testing.T, opts Options) (*nvm.Device, *Container) {
	dev, c := newTestContainer(t, opts)
	for _, seg := range []int{1, 2} {
		writeU64(c, seg*4096, 1)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, seg := range []int{1, 2, 5} { // 1 and 2 pair here; 5 has no state to protect yet
		for i := 0; i < 6; i++ {
			writeU64(c, seg*4096+i*512, uint64(seg*100+i))
		}
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return dev, c
}

// foreverPS is idle time with room for any replay.
const foreverPS = 1 << 60

// preCopy is the populate pre-copy as a caller spells it: the epoch's
// copy-on-write deferred with nothing being served, and drained on the spot.
func preCopy(c *Container) {
	c.DeferCoW(foreverPS)
	c.StepCoW(0)
}

// TestPreCopy: a deferred copy-on-write drained ahead of the epoch leaves
// every populated segment writable without a copy — no segment dirty, the
// differential tracking restarted, checksummed metadata sealed again — under
// two fences, and the epoch's first stores then issue none.
func TestPreCopy(t *testing.T) {
	for _, checksums := range []bool{false, true} {
		opts := incOpts(ModeDefault)
		opts.Region.Checksums = checksums
		dev, c := preCopyFixture(t, opts)
		rec := obs.NewRecorder(dev.Clock())
		c.SetTrace(rec)
		f0 := dev.Stats().SFences
		preCopy(c)
		if got := dev.Stats().SFences - f0; got != 2 && !checksums {
			t.Fatalf("pre-copy of three segments issued %d fences, want 2", got)
		}
		if segs, blocks := c.DirtyInfo(); segs != 0 || blocks != 0 {
			t.Fatalf("pre-copy left %d dirty segments and %d differential blocks", segs, blocks)
		}
		if c.inc != nil {
			t.Fatal("the drained replay is still in flight")
		}
		if checksums && !c.meta.Sealed() {
			t.Fatal("pre-copy left checksummed metadata unsealed")
		}
		e := int(c.CommittedEpoch() % 2)
		for _, seg := range []int{1, 2, 5} {
			if st := c.meta.SegState(e, seg); st != region.SSBackup {
				t.Fatalf("segment %d in state %v after the pre-copy, want SS_Backup", seg, st)
			}
		}
		if want := int64(4096 + 2*6*256); c.CoWBytes() < want {
			t.Fatalf("pre-copy moved %d bytes, want a whole segment and two differentials (%d)", c.CoWBytes(), want)
		}
		if got, want := counter(rec, "ckpt/deferred_cow_bytes"), int64(4096+2*6*256); got != want {
			t.Fatalf("ckpt/deferred_cow_bytes = %d, want %d", got, want)
		}
		if full, diff := counter(rec, "cow/full_segments"), counter(rec, "cow/diff_segments"); full != 1 || diff != 2 {
			t.Fatalf("%d full and %d differential segment copies counted, want 1 and 2", full, diff)
		}
		cow, f1 := c.CoWBytes(), dev.Stats().SFences
		for _, seg := range []int{1, 2, 5} {
			writeU64(c, seg*4096+8, 0xABCD)
		}
		if c.CoWBytes() != cow || dev.Stats().SFences != f1 {
			t.Fatalf("first stores after the pre-copy still copied (%d bytes, %d fences)", c.CoWBytes()-cow, dev.Stats().SFences-f1)
		}
		spans := 0
		for _, s := range rec.Snapshot("").Spans {
			switch s.Name {
			case "pre-copy":
				spans++
			case "cow", "ckpt-replay":
				t.Fatalf("a %s span: an idle replay's quanta are pre-copy spans", s.Name)
			}
		}
		if spans != 1 {
			t.Fatalf("%d pre-copy spans, want 1", spans)
		}
		// Nothing left to copy: a second call is free.
		p0 := dev.PrimitiveCount()
		preCopy(c)
		if dev.PrimitiveCount() != p0 {
			t.Fatal("a pre-copy with nothing owed issued primitives")
		}
		// The epoch commits and survives a crash like any other.
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		dev.CrashDropAll()
		c2, err := OpenContainer(dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := readU64(c2, 5*4096+8); got != 0xABCD {
			t.Fatalf("store after the pre-copy lost: %#x", got)
		}
	}
}

// TestPreCopyCrashAtEveryPrimitive: a power failure at any primitive of the
// drained replay — mid-copy, between the fences, mid-flip, mid-seal — recovers
// the committed state under every crash image, because each segment's state
// entry stays SS_Main until the flip fence and recovery re-syncs from main.
func TestPreCopyCrashAtEveryPrimitive(t *testing.T) {
	for _, checksums := range []bool{false, true} {
		opts := incOpts(ModeDefault)
		opts.Region.Checksums = checksums
		refDev, refC := preCopyFixture(t, opts)
		want := bytes.Clone(refC.Bytes())
		epoch := refC.CommittedEpoch()
		p0 := refDev.PrimitiveCount()
		preCopy(refC)
		total := refDev.PrimitiveCount() - p0
		if total < 4 {
			t.Fatalf("pre-copy issued only %d primitives", total)
		}
		for _, pol := range wtCrashPolicies {
			for k := int64(0); k < total; k++ {
				dev, c := preCopyFixture(t, opts)
				if !crashesWithin(dev, k, func() { preCopy(c) }) {
					t.Fatalf("checksums=%v: crash at pre-copy primitive %d of %d never fired", checksums, k, total)
				}
				dev.CrashWith(pol.make(k))
				c2, err := OpenContainer(dev, opts)
				if err != nil {
					t.Fatalf("checksums=%v %s: crash at %d: reopen: %v", checksums, pol.name, k, err)
				}
				if c2.CommittedEpoch() != epoch || !bytes.Equal(c2.Bytes(), want) {
					t.Fatalf("checksums=%v %s: crash at pre-copy primitive %d: recovered epoch %d (want %d), first difference at %d",
						checksums, pol.name, k, c2.CommittedEpoch(), epoch, firstDiff(c2.Bytes(), want))
				}
			}
		}
	}
}

// TestPreCopyInert: nothing to run ahead in buffered mode, and nothing safe
// to while an incremental checkpoint is in flight.
func TestPreCopyInert(t *testing.T) {
	for _, tc := range []struct {
		mode     Mode
		inFlight bool
	}{{ModeBuffered, false}, {ModeDefault, true}} {
		dev, c := preCopyFixture(t, incOpts(tc.mode))
		if tc.inFlight {
			writeU64(c, 4096, 9)
			if err := c.CheckpointBegin(); err != nil {
				t.Fatal(err)
			}
		}
		p0, t0 := dev.PrimitiveCount(), dev.Clock().NowPS()
		preCopy(c)
		if dev.PrimitiveCount() != p0 || dev.Clock().NowPS() != t0 {
			t.Errorf("mode %v inFlight=%v: pre-copy is not inert", tc.mode, tc.inFlight)
		}
		if tc.inFlight && (c.inc == nil || c.inc.deferred) {
			t.Error("a deferral displaced the checkpoint in flight")
		}
	}
}

// TestDeferredLiftVoidsEarlyWriteBack: a segment that has flipped still holds
// staged stores until the lift re-applies them, and in between it is ordinary
// ground — a later store may dirty one of those blocks and a pre-flush or a
// scope write it back and mark it. The mark covers the lines that were dirty
// then; the lift dirties the staged ones, so it must void the mark like any
// store, or the checkpoint skips the block and commits the staged store
// nowhere.
func TestDeferredLiftVoidsEarlyWriteBack(t *testing.T) {
	for _, scoped := range []bool{false, true} {
		opts := incOpts(ModeDefault)
		dev, c := newTestContainer(t, opts)
		c.preLag = 0
		c.PreFlush(0) // from here on the hook queues what it dirties
		writeU64(c, 4096, 1)
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		c.DeferCoW(foreverPS) // segment 1: sixteen blocks to copy
		for b := 0; b < 3; b++ {
			writeU64(c, 4096+b*256, 0xA0+uint64(b)) // staged, line 0 of blocks 16..18
		}
		// One block per quantum: sixteen copy the segment, the next flips it
		// and has budget left to lift one block of the three.
		for i := 0; i < 17; i++ {
			c.StepCoW(1)
		}
		if c.inc == nil || c.inc.cutSegs.Test(1) || c.inc.staged.Count() != 2 {
			t.Fatalf("scoped=%v: want segment 1 flipped with two staged blocks left to lift", scoped)
		}
		if scoped {
			c.BeginWriteThrough()
		}
		writeU64(c, 4096+256+64, 0xB1) // block 17 again, line 1: an ordinary store now
		if scoped {
			c.EndWriteThrough()
		} else {
			c.PreFlush(1 << 40)
		}
		if !c.pre.Test(17) {
			t.Fatalf("scoped=%v: block 17 was not written back early; the test proves nothing", scoped)
		}
		for c.StepCoW(1) > 0 {
		}
		if c.inc != nil || c.pre.Test(17) {
			t.Fatalf("scoped=%v: replay in flight %v, block 17 still marked %v after its lift", scoped, c.inc != nil, c.pre.Test(17))
		}
		auditWT(c)
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		dev.CrashDropAll()
		c2, err := OpenContainer(dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < 3; b++ {
			if got := readU64(c2, 4096+b*256); got != 0xA0+uint64(b) {
				t.Fatalf("scoped=%v: staged store %d committed as %#x", scoped, b, got)
			}
		}
		if got := readU64(c2, 4096+256+64); got != 0xB1 {
			t.Fatalf("scoped=%v: the later store committed as %#x", scoped, got)
		}
	}
}
