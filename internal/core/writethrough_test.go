package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"libcrpm/internal/nvm"
	"libcrpm/internal/obs"
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
	wtBegin             // BeginWriteThrough
	wtEnd               // EndWriteThrough
	wtCheckpoint        // monolithic, outside any scope
	wtIncBegin          // CheckpointBegin; scopes are inert until wtIncFinish
	wtIncStep           // one small quantum
	wtIncFinish         // drain, commit, drain the replay
)

// wtStepsPerCut is the number of stores and scope edges between two cuts.
const wtStepsPerCut = 14

// buildWTScript interleaves scoped and unscoped stores with monolithic and
// incremental checkpoints. Stores cluster on a few segments so scoped and
// unscoped stores keep hitting the same blocks — the case the skip
// invariant is about.
func buildWTScript(rng *rand.Rand, heapSize, cuts int) []wtStep {
	var script []wtStep
	inScope := false
	store := func() {
		seg := rng.Intn(4)
		off := seg*4096 + rng.Intn(4096/8)*8
		script = append(script, wtStep{kind: wtStore, off: off % (heapSize - 8), val: rng.Uint64()})
	}
	for cut := 0; cut < cuts; cut++ {
		for i := 0; i < wtStepsPerCut; i++ {
			switch r := rng.Intn(10); {
			case r < 2 && !inScope:
				script = append(script, wtStep{kind: wtBegin})
				inScope = true
			case r < 4 && inScope:
				script = append(script, wtStep{kind: wtEnd})
				inScope = false
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
		}
		script = append(script, wtStep{kind: wtIncFinish})
	}
	return script
}

// auditWT checks the bookkeeping invariant the checkpoint's accounting
// leans on: every marked block is a dirty block of a dirty segment.
func auditWT(c *Container) {
	if c.pre == nil {
		return
	}
	if c.wtOn != (c.wt || c.pre.Any()) {
		panic(fmt.Sprintf("wtOn=%v with wt=%v and %d marks", c.wtOn, c.wt, c.pre.Count()))
	}
	bps := c.l.BlocksPerSeg()
	c.pre.ForEach(func(b int) {
		if !c.dirtyBlocks.Test(b) || !c.dirtySegs.Test(b/bps) {
			panic(fmt.Sprintf("block %d is marked written-through but not dirty this epoch", b))
		}
	})
}

// runWTScript executes the script, recording in shadows the state each
// epoch commits: the working state at the moment its checkpoint began
// (Checkpoint or CheckpointBegin). audit additionally checks the marks
// after every step, and that every kind of checkpoint leaves none.
func runWTScript(c *Container, script []wtStep, shadows map[uint64][]byte, audit bool) {
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
		case wtBegin:
			c.BeginWriteThrough()
		case wtEnd:
			c.EndWriteThrough()
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
			if (st.kind == wtCheckpoint || st.kind == wtIncBegin) && c.wtOn {
				panic("marks survived a checkpoint")
			}
		}
	}
}

// TestWriteThroughCrashProperty is the write-through safety property: over
// random interleavings of scoped and unscoped stores, monolithic and
// incremental checkpoints, with a crash at strided primitives through all
// of it — the scopes' flushes and fences included — under every crash-image
// policy and both metadata formats, recovery lands exactly on the committed
// image.
func TestWriteThroughCrashProperty(t *testing.T) {
	policies := []struct {
		name string
		make func(seed int64) nvm.CrashPolicy
	}{
		{"persist-all", func(int64) nvm.CrashPolicy { return nvm.PersistAll }},
		{"drop-all", func(int64) nvm.CrashPolicy { return nvm.DropAll }},
		{"alternating-0", func(int64) nvm.CrashPolicy { return nvm.Alternating(0) }},
		{"alternating-1", func(int64) nvm.CrashPolicy { return nvm.Alternating(1) }},
		{"seeded", func(seed int64) nvm.CrashPolicy { return nvm.SeededCrash(rand.New(rand.NewSource(seed))) }},
	}
	points := 60
	if testing.Short() {
		points = 12
	}
	for _, checksums := range []bool{false, true} {
		for _, pol := range policies {
			t.Run(fmt.Sprintf("checksums=%v/%s", checksums, pol.name), func(t *testing.T) {
				opts := incOpts(ModeDefault)
				opts.Region.Checksums = checksums
				script := buildWTScript(rand.New(rand.NewSource(99)), opts.Region.HeapSize, 9)

				refDev, refC := newTestContainer(t, opts)
				base := refDev.PrimitiveCount()
				runWTScript(refC, script, map[uint64][]byte{}, true)
				total := refDev.PrimitiveCount() - base
				if refC.metrics.CheckpointBytes == 0 {
					t.Fatal("reference run checkpointed nothing")
				}

				rng := rand.New(rand.NewSource(5))
				stride := total/int64(points) + 1
				for k := int64(0); k < total; k += stride {
					at := k + rng.Int63n(stride)
					dev, c := newTestContainer(t, opts)
					shadows := map[uint64][]byte{}
					crashed := func() (crashed bool) {
						defer func() {
							if r := recover(); r != nil {
								if _, ok := r.(nvm.InjectedCrash); !ok {
									panic(r)
								}
								crashed = true
							}
						}()
						dev.FailAfter(at)
						runWTScript(c, script, shadows, false)
						return false
					}()
					dev.FailAfter(-1)
					if !crashed {
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

// TestWriteThroughCheckpointSkipsScopeBlocks: a checkpoint right after a
// scope finds the scope's blocks durable and flushes none of them, and
// commits their content all the same.
func TestWriteThroughCheckpointSkipsScopeBlocks(t *testing.T) {
	run := func(scoped bool) (flushTicks, dirtyBytes int64, dev *nvm.Device, opts Options) {
		opts = smallOpts(ModeDefault)
		dev, c := newTestContainer(t, opts)
		rec := obs.NewRecorder(dev.Clock())
		c.SetTrace(rec)
		if scoped {
			c.BeginWriteThrough()
		}
		for i := 0; i < 40; i++ {
			writeU64(c, (i*7%64)*512, uint64(i)+1)
		}
		if scoped {
			c.EndWriteThrough()
			if n := dev.DirtyLineCount(); n != 0 {
				t.Fatalf("%d dirty lines left after the scope's fence", n)
			}
		}
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		tr := rec.Snapshot("")
		for _, s := range tr.Spans {
			if s.Name == "flush" {
				flushTicks += s.Ticks
			}
		}
		for _, cn := range tr.Counters {
			if cn.Name == "ckpt/dirty_bytes" {
				dirtyBytes = cn.Value
			}
		}
		return flushTicks, dirtyBytes, dev, opts
	}
	plainTicks, plainBytes, _, _ := run(false)
	if plainTicks == 0 || plainBytes == 0 {
		t.Fatalf("control checkpoint flushed nothing (%d ps, %d bytes)", plainTicks, plainBytes)
	}
	ticks, dirty, dev, opts := run(true)
	if ticks != 0 || dirty != 0 {
		t.Fatalf("checkpoint after a scope flushed %d ps / %d bytes of the scope's blocks, want none", ticks, dirty)
	}
	dev.CrashDropAll()
	c2, err := OpenContainer(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if got := readU64(c2, (i*7%64)*512); got == 0 {
			t.Fatalf("store %d lost across the skipping checkpoint", i)
		}
	}
}

// TestWriteThroughLaterStoreIsFlushedAgain: a store that lands after its
// block's scope has fenced clears the mark, so the next checkpoint flushes
// the block again — also when it is the very block the write hook last
// saw, which the last-block memo would otherwise wave through.
func TestWriteThroughLaterStoreIsFlushedAgain(t *testing.T) {
	for _, other := range []bool{false, true} {
		opts := smallOpts(ModeDefault)
		dev, c := newTestContainer(t, opts)
		c.BeginWriteThrough()
		writeU64(c, 512, 1)
		writeU64(c, 8192, 1)
		c.EndWriteThrough()
		if other {
			writeU64(c, 512, 2) // not the scope's last block
		}
		writeU64(c, 8192, 2) // the scope's last block: the memo's candidate
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
			t.Fatalf("other=%v: committed (%d, %d), want (%d, 2): a store after the scope's fence was skipped", other, a, b, want512)
		}
	}
}

// TestWriteThroughInert: in buffered mode, and between CheckpointBegin and
// the end of the pipeline, a scope changes nothing — the same primitives,
// the same clock, as the same stores without it.
func TestWriteThroughInert(t *testing.T) {
	run := func(mode Mode, inFlight, scoped bool) (int64, int64) {
		opts := incOpts(mode)
		dev, c := newTestContainer(t, opts)
		for i := 0; i < 16; i++ {
			writeU64(c, i*1024, 7)
		}
		if inFlight {
			if err := c.CheckpointBegin(); err != nil {
				t.Fatal(err)
			}
		}
		if scoped {
			c.BeginWriteThrough()
		}
		for i := 0; i < 24; i++ {
			writeU64(c, i*640, uint64(i))
		}
		if scoped {
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
		name     string
		mode     Mode
		inFlight bool
	}{
		{"buffered", ModeBuffered, false},
		{"buffered-in-flight", ModeBuffered, true},
		{"default-in-flight", ModeDefault, true},
	} {
		p0, t0 := run(tc.mode, tc.inFlight, false)
		p1, t1 := run(tc.mode, tc.inFlight, true)
		if p0 != p1 || t0 != t1 {
			t.Errorf("%s: scope is not inert: %d primitives / %d ps without, %d / %d with", tc.name, p0, t0, p1, t1)
		}
	}
	// The control: in default mode with no cut in flight the scope does work.
	p0, _ := run(ModeDefault, false, false)
	p1, _ := run(ModeDefault, false, true)
	if p0 == p1 {
		t.Error("default-mode scope issued no primitives of its own")
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
