package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"libcrpm/internal/nvm"
)

// incOpts is smallOpts with eager CoW disabled: the monolithic checkpoint's
// checkpoint-period CoW is an optional prefetch the pipeline deliberately
// does not perform, so identity comparisons run without it.
func incOpts(mode Mode) Options {
	o := smallOpts(mode)
	o.EagerCoWSegments = -1
	return o
}

// incCheckpoint drives one full pipeline cycle: begin, drain the flush in
// small quanta, commit, drain the replay.
func incCheckpoint(t *testing.T, c *Container, budget int) {
	t.Helper()
	if err := c.CheckpointBegin(); err != nil {
		t.Fatal(err)
	}
	for {
		rem, err := c.CheckpointStep(budget)
		if err != nil {
			t.Fatal(err)
		}
		if rem == 0 {
			break
		}
	}
	if err := c.CheckpointCommit(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckpointFinish(); err != nil {
		t.Fatal(err)
	}
	if c.CheckpointInFlight() {
		t.Fatal("pipeline still in flight after CheckpointFinish")
	}
}

// TestIncrementalMatchesMonolithic runs the same multi-epoch workload
// through the monolithic Checkpoint and the incremental pipeline and
// requires identical committed media, identical user bytes, and identical
// epochs. Primitive counts are not compared: stepCopy merges flush runs
// across segment boundaries where the monolithic loop splits them, so tick
// totals may differ while every persisted byte is the same.
func TestIncrementalMatchesMonolithic(t *testing.T) {
	for _, m := range modes() {
		for _, budget := range []int{512, 4096, 0} { // 0 = unbounded quanta
			t.Run(fmt.Sprintf("%v/budget=%d", m, budget), func(t *testing.T) {
				devM, cm := newTestContainer(t, incOpts(m))
				devI, ci := newTestContainer(t, incOpts(m))
				rng := rand.New(rand.NewSource(42))
				for epoch := 0; epoch < 6; epoch++ {
					for i := 0; i < 80; i++ {
						off := rng.Intn(cm.Size()-8) &^ 7
						v := rng.Uint64()
						writeU64(cm, off, v)
						writeU64(ci, off, v)
					}
					if err := cm.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					incCheckpoint(t, ci, budget)
					if cm.CommittedEpoch() != ci.CommittedEpoch() {
						t.Fatalf("epoch %d: monolithic epoch %d, incremental %d",
							epoch, cm.CommittedEpoch(), ci.CommittedEpoch())
					}
					if !bytes.Equal(cm.Bytes(), ci.Bytes()) {
						t.Fatalf("epoch %d: user bytes diverge", epoch)
					}
					if !bytes.Equal(devM.MediaSnapshot(), devI.MediaSnapshot()) {
						t.Fatalf("epoch %d: committed media diverges", epoch)
					}
				}
			})
		}
	}
}

// TestIncrementalCommitsCutBoundarySnapshot is the pipeline's core safety
// property: whatever interleaving of foreground writes and budgeted quanta
// happens between CheckpointBegin and CheckpointCommit, the committed image
// is exactly the working state at Begin — post-Begin writes never leak into
// the cut, under any crash persistence policy and at any point after the
// commit (including mid-replay).
func TestIncrementalCommitsCutBoundarySnapshot(t *testing.T) {
	policies := []struct {
		name string
		p    nvm.CrashPolicy
	}{
		{"drop-all", nvm.DropAll},
		{"persist-all", nvm.PersistAll},
		{"seeded", nil}, // filled per trial
	}
	for _, m := range modes() {
		for trial := 0; trial < 8; trial++ {
			for _, cp := range policies {
				t.Run(fmt.Sprintf("%v/trial=%d/%s", m, trial, cp.name), func(t *testing.T) {
					opts := incOpts(m)
					dev, c := newTestContainer(t, opts)
					rng := rand.New(rand.NewSource(int64(1000 + trial)))
					// Epoch 1: a committed base so the cut has real history.
					for i := 0; i < 40; i++ {
						writeU64(c, (rng.Intn(c.Size()-8))&^7, rng.Uint64())
					}
					if err := c.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					// Epoch 2 dirt, then open the cut.
					for i := 0; i < 60; i++ {
						writeU64(c, (rng.Intn(c.Size()-8))&^7, rng.Uint64())
					}
					if err := c.CheckpointBegin(); err != nil {
						t.Fatal(err)
					}
					want := append([]byte(nil), c.Bytes()...)
					wantEpoch := c.CommittedEpoch() + 1
					// Random interleaving: writes (many aimed at the cut's own
					// segments, exercising the barrier) against small quanta.
					for {
						if rng.Intn(2) == 0 {
							for i := 0; i < 1+rng.Intn(8); i++ {
								writeU64(c, (rng.Intn(c.Size()-8))&^7, rng.Uint64())
							}
						}
						rem, err := c.CheckpointStep(256 + rng.Intn(1024))
						if err != nil {
							t.Fatal(err)
						}
						if rem == 0 {
							break
						}
					}
					if err := c.CheckpointCommit(); err != nil {
						t.Fatal(err)
					}
					// Step the replay a random partial amount, then crash.
					for i := rng.Intn(4); i > 0; i-- {
						if _, err := c.CheckpointStep(512); err != nil {
							t.Fatal(err)
						}
					}
					pol := cp.p
					if pol == nil {
						pol = nvm.SeededCrash(rng)
					}
					dev.CrashWith(pol)
					c2, err := OpenContainer(dev, opts)
					if err != nil {
						t.Fatal(err)
					}
					if c2.CommittedEpoch() != wantEpoch {
						t.Fatalf("recovered epoch %d, want %d", c2.CommittedEpoch(), wantEpoch)
					}
					if !bytes.Equal(c2.Bytes(), want) {
						t.Fatalf("recovered state is not the cut-boundary snapshot (first diff at %d)",
							firstDiffAt(c2.Bytes(), want))
					}
				})
			}
		}
	}
}

// TestIncrementalCrashBeforeCommitRecoversPreviousEpoch: a crash at any
// point before CheckpointCommit — including mid-flush with the cut half
// retired — must recover the previous committed epoch exactly.
func TestIncrementalCrashBeforeCommitRecoversPreviousEpoch(t *testing.T) {
	for _, m := range modes() {
		opts := incOpts(m)
		dev, c := newTestContainer(t, opts)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 50; i++ {
			writeU64(c, (rng.Intn(c.Size()-8))&^7, rng.Uint64())
		}
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		want := append([]byte(nil), c.Bytes()...)
		for i := 0; i < 50; i++ {
			writeU64(c, (rng.Intn(c.Size()-8))&^7, rng.Uint64())
		}
		if err := c.CheckpointBegin(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.CheckpointStep(1024); err != nil { // cut half-retired
			t.Fatal(err)
		}
		writeU64(c, 0, 0xbad) // barrier-intercepted store, also lost
		dev.Crash(rng)
		c2, err := OpenContainer(dev, opts)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if c2.CommittedEpoch() != 1 {
			t.Fatalf("%v: recovered epoch %d, want 1", m, c2.CommittedEpoch())
		}
		if !bytes.Equal(c2.Bytes(), want) {
			t.Fatalf("%v: recovery after mid-flush crash is not the previous checkpoint", m)
		}
	}
}

// TestIncrementalKeepsForegroundWrites: stores intercepted by the write
// barrier survive the pipeline and commit normally with the next cut.
func TestIncrementalKeepsForegroundWrites(t *testing.T) {
	for _, m := range modes() {
		opts := incOpts(m)
		dev, c := newTestContainer(t, opts)
		writeU64(c, 0, 1)
		writeU64(c, 5000, 2)
		if err := c.CheckpointBegin(); err != nil {
			t.Fatal(err)
		}
		writeU64(c, 0, 11)    // quarantined segment: staged (default) / aside (buffered)
		writeU64(c, 9000, 33) // clean segment: ordinary next-epoch CoW
		if _, err := c.CheckpointStep(-1); err != nil {
			t.Fatal(err)
		}
		if err := c.CheckpointCommit(); err != nil {
			t.Fatal(err)
		}
		if err := c.CheckpointFinish(); err != nil {
			t.Fatal(err)
		}
		// Working state sees every store immediately.
		for off, want := range map[int]uint64{0: 11, 5000: 2, 9000: 33} {
			if got := readU64(c, off); got != want {
				t.Fatalf("%v: working off %d = %d, want %d", m, off, got, want)
			}
		}
		// The next cut commits them durably.
		incCheckpoint(t, c, 512)
		dev.CrashDropAll()
		c2, err := OpenContainer(dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		for off, want := range map[int]uint64{0: 11, 5000: 2, 9000: 33} {
			if got := readU64(c2, off); got != want {
				t.Fatalf("%v: recovered off %d = %d, want %d", m, off, got, want)
			}
		}
	}
}

// TestIncrementalStateMachineErrors pins the pipeline's misuse errors.
func TestIncrementalStateMachineErrors(t *testing.T) {
	for _, m := range modes() {
		_, c := newTestContainer(t, incOpts(m))
		if err := c.CheckpointCommit(); err == nil {
			t.Fatalf("%v: Commit without Begin succeeded", m)
		}
		writeU64(c, 0, 1)
		if err := c.CheckpointBegin(); err != nil {
			t.Fatal(err)
		}
		if err := c.CheckpointBegin(); err == nil {
			t.Fatalf("%v: double Begin succeeded", m)
		}
		if err := c.Checkpoint(); err == nil {
			t.Fatalf("%v: monolithic Checkpoint with a cut in flight succeeded", m)
		}
		if err := c.CheckpointFinish(); err == nil {
			t.Fatalf("%v: Finish before Commit succeeded", m)
		}
		if err := c.CheckpointCommit(); err != nil {
			t.Fatal(err)
		}
		if err := c.CheckpointCommit(); err == nil && c.CheckpointInFlight() {
			t.Fatalf("%v: double Commit succeeded with replay outstanding", m)
		}
		if err := c.CheckpointFinish(); err != nil {
			t.Fatal(err)
		}
		// Idle pipeline: Step and Finish are no-ops.
		if rem, err := c.CheckpointStep(64); err != nil || rem != 0 {
			t.Fatalf("%v: idle Step = (%d, %v)", m, rem, err)
		}
		if err := c.CheckpointFinish(); err != nil {
			t.Fatalf("%v: idle Finish: %v", m, err)
		}
	}
}

// TestIncrementalStepBudgetBoundsPause: every quantum of a budgeted cut —
// flush and replay alike — stays within a small constant factor of the
// budget's nominal duration, even when foreground writes keep re-dirtying
// the quarantined segments. This is the property the pause:BUDGET policy
// sells.
func TestIncrementalStepBudgetBoundsPause(t *testing.T) {
	const budget = 2560 // 40 lines ≈ 2 µs of clwb at the default cost model
	for _, m := range modes() {
		opts := incOpts(m)
		dev, c := newTestContainer(t, opts)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 200; i++ {
			writeU64(c, (rng.Intn(c.Size()-8))&^7, rng.Uint64())
		}
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			writeU64(c, (rng.Intn(c.Size()-8))&^7, rng.Uint64())
		}
		if err := c.CheckpointBegin(); err != nil {
			t.Fatal(err)
		}
		const maxQuantumPS = 8_000_000 // 8 µs: budget + fence + slack
		committed := false
		for {
			for i := 0; i < 4; i++ { // keep pressure on the write barrier
				writeU64(c, (rng.Intn(c.Size()-8))&^7, rng.Uint64())
			}
			t0 := dev.Clock().NowPS()
			rem, err := c.CheckpointStep(budget)
			if err != nil {
				t.Fatal(err)
			}
			if d := dev.Clock().NowPS() - t0; d > maxQuantumPS {
				t.Fatalf("%v: quantum took %d ps (> %d)", m, d, maxQuantumPS)
			}
			if rem == 0 {
				if committed {
					break
				}
				if err := c.CheckpointCommit(); err != nil {
					t.Fatal(err)
				}
				committed = true
				if !c.CheckpointInFlight() {
					break
				}
			}
		}
	}
}

// TestIncrementalConcurrentWriters drives the pipeline while writer
// goroutines hammer the container, for the race detector's benefit. The
// Concurrent option serializes the instrumented write path, so the test
// asserts only absence of races and final-state sanity.
func TestIncrementalConcurrentWriters(t *testing.T) {
	for _, m := range modes() {
		opts := incOpts(m)
		opts.Concurrent = true
		_, c := newTestContainer(t, opts)
		writeU64(c, 0, 1)
		if err := c.CheckpointBegin(); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for i := 0; i < 200; i++ {
					writeU64(c, (rng.Intn(c.Size()-8))&^7, rng.Uint64())
				}
			}(w)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				rem, err := c.CheckpointStep(1024)
				if err != nil {
					t.Error(err)
					return
				}
				if rem == 0 {
					return
				}
			}
		}()
		wg.Wait()
		<-done
		if err := c.CheckpointCommit(); err != nil {
			t.Fatal(err)
		}
		if err := c.CheckpointFinish(); err != nil {
			t.Fatal(err)
		}
		if got := c.CommittedEpoch(); got != 1 {
			t.Fatalf("%v: epoch = %d, want 1", m, got)
		}
	}
}

// firstDiffAt returns the first differing index of two equal-length slices.
func firstDiffAt(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestIncrementalCutAllocsConstant is the allocation guard of the pooled
// pipeline: once warm, a full cut cycle — dirty a set of blocks, Begin,
// stage stores into every quarantined block (one aside image each), step
// the flush, Commit, step the replay and the lift — allocates a constant
// handful of objects, not one per staged block or per cut-sized bitmap.
func TestIncrementalCutAllocsConstant(t *testing.T) {
	for _, m := range modes() {
		t.Run(m.String(), func(t *testing.T) {
			_, c := newTestContainer(t, incOpts(m))
			blk := c.Layout().BlkSize
			cycle := func(blocks int) {
				for b := 0; b < blocks; b++ {
					writeU64(c, b*blk, uint64(b))
				}
				if err := c.CheckpointBegin(); err != nil {
					t.Fatal(err)
				}
				for b := 0; b < blocks; b++ {
					writeU64(c, b*blk+8, uint64(b)) // staged behind the write barrier
				}
				if _, err := c.CheckpointStep(4 * blk); err != nil {
					t.Fatal(err)
				}
				if err := c.CheckpointCommit(); err != nil {
					t.Fatal(err)
				}
				for c.CheckpointInFlight() {
					if _, err := c.CheckpointStep(4 * blk); err != nil {
						t.Fatal(err)
					}
				}
			}
			total := c.Layout().TotalBlocks()
			cycle(total) // warm the pools at the largest footprint
			few := testing.AllocsPerRun(20, func() { cycle(8) })
			many := testing.AllocsPerRun(20, func() { cycle(total) })
			t.Logf("allocs per cut: %.0f at 8 staged blocks, %.0f at %d", few, many, total)
			if few > 2 || many > 2 {
				t.Fatalf("steady-state cut allocates %.0f objects at 8 staged blocks, %.0f at %d; want O(1)", few, many, total)
			}
		})
	}
}
