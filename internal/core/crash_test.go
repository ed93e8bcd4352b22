package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"libcrpm/internal/nvm"
	"libcrpm/internal/region"
)

// scriptStep is one deterministic workload action.
type scriptStep struct {
	off        int
	val        uint64
	checkpoint bool
}

// buildScript produces a deterministic mixed workload over the heap:
// clustered and scattered writes with periodic checkpoints.
func buildScript(rng *rand.Rand, heapSize, steps, ckptEvery int) []scriptStep {
	var script []scriptStep
	for i := 0; i < steps; i++ {
		if i > 0 && i%ckptEvery == 0 {
			script = append(script, scriptStep{checkpoint: true})
		}
		off := rng.Intn(heapSize/8-1) * 8
		script = append(script, scriptStep{off: off, val: rng.Uint64()})
	}
	script = append(script, scriptStep{checkpoint: true})
	return script
}

// runScript executes the script against a container, recording in shadows
// the exact state each epoch number commits (shadows[e] is the working state
// at the moment epoch e's checkpoint began). A crash inside a checkpoint may
// legally recover to either the previous epoch or — if the commit point was
// passed — the new one; the recovered CommittedEpoch selects which shadow to
// compare against. If the device panics with an injected crash, the panic
// propagates to the caller.
func runScript(c *Container, script []scriptStep, shadows map[uint64][]byte) {
	if _, ok := shadows[0]; !ok {
		shadows[0] = make([]byte, c.Size())
	}
	epoch := c.CommittedEpoch()
	for _, st := range script {
		if st.checkpoint {
			snap := make([]byte, c.Size())
			copy(snap, c.Bytes())
			shadows[epoch+1] = snap
			if err := c.Checkpoint(); err != nil {
				panic(err)
			}
			epoch++
			continue
		}
		writeU64(c, st.off, st.val)
	}
}

// TestCrashSweepEveryPrimitive is the central failure-atomicity test: it
// replays the same workload with an injected crash after the k-th device
// primitive, for a sweep of k covering the whole run — including crash
// points inside copy-on-write and inside the checkpoint protocol — and
// verifies that recovery always reproduces exactly the last committed state.
func TestCrashSweepEveryPrimitive(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep is slow")
	}
	for _, mode := range modes() {
		for _, eager := range []int{-1, 1000} {
			if mode == ModeBuffered && eager != -1 {
				continue // buffered mode has no eager CoW path
			}
			name := fmt.Sprintf("%v/eager=%d", mode, eager)
			t.Run(name, func(t *testing.T) {
				crashSweep(t, mode, eager, 1.0)
			})
		}
	}
}

// TestCrashSweepWithStealing repeats the sweep with a scarce backup region
// so allocation stealing is exercised under crashes.
func TestCrashSweepWithStealing(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep is slow")
	}
	// Script touches few segments per epoch; ratio 0.5 forces steals over
	// the run without exhausting.
	for _, mode := range modes() {
		t.Run(mode.String(), func(t *testing.T) {
			crashSweep(t, mode, -1, 0.5)
		})
	}
}

func crashSweep(t *testing.T, mode Mode, eager int, backupRatio float64) {
	t.Helper()
	opts := Options{
		Region: region.Config{
			HeapSize:    8 * 4096,
			SegmentSize: 4096,
			BlockSize:   256,
			BackupRatio: backupRatio,
		},
		Mode:             mode,
		EagerCoWSegments: eager,
	}
	l, err := region.NewLayout(opts.Region)
	if err != nil {
		t.Fatal(err)
	}
	scriptRng := rand.New(rand.NewSource(42))
	var script []scriptStep
	if backupRatio < 1 {
		// Confine each epoch to a rotating half of the segments so the
		// scarce backup region suffices, while stealing still happens.
		for epoch := 0; epoch < 6; epoch++ {
			for i := 0; i < 12; i++ {
				seg := (epoch*3 + scriptRng.Intn(3)) % l.NMain
				off := seg*4096 + scriptRng.Intn(4096/8-1)*8
				script = append(script, scriptStep{off: off, val: scriptRng.Uint64()})
			}
			script = append(script, scriptStep{checkpoint: true})
		}
	} else {
		script = buildScript(scriptRng, l.HeapSize(), 60, 12)
	}

	// Reference run (no crash) to count device primitives.
	refDev := nvm.NewDevice(l.DeviceSize())
	refC, err := NewContainer(refDev, opts)
	if err != nil {
		t.Fatal(err)
	}
	runScript(refC, script, map[uint64][]byte{})
	totalOps := refDev.Stats().Stores + refDev.Stats().Loads + refDev.Stats().CLWBs +
		refDev.Stats().SFences + refDev.Stats().WBINVDs + refDev.Stats().NTStoreBytes/64

	// Sweep crash points. Stride keeps the test fast while still hitting
	// every protocol phase; the offset varies per run of the loop.
	crashRng := rand.New(rand.NewSource(7))
	stride := totalOps/400 + 1
	for k := int64(1); k < totalOps+10; k += stride {
		failPoint := k + int64(crashRng.Intn(int(stride)))
		dev := nvm.NewDevice(l.DeviceSize())
		c, err := NewContainer(dev, opts)
		if err != nil {
			t.Fatal(err)
		}
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
			dev.FailAfter(failPoint)
			runScript(c, script, shadows)
			return false
		}()
		dev.FailAfter(-1)
		if !crashed {
			// Past the end of the run; done.
			break
		}
		dev.Crash(crashRng)
		c2, err := OpenContainer(dev, opts)
		if err != nil {
			t.Fatalf("fail point %d: open: %v", failPoint, err)
		}
		expect, ok := shadows[c2.CommittedEpoch()]
		if !ok {
			t.Fatalf("%v fail point %d: recovered to epoch %d which was never reached",
				mode, failPoint, c2.CommittedEpoch())
		}
		if !bytes.Equal(c2.Bytes(), expect) {
			diff := firstDiff(c2.Bytes(), expect)
			t.Fatalf("%v fail point %d: recovered state differs from committed epoch %d at offset %d (got %d, want %d)",
				mode, failPoint, c2.CommittedEpoch(), diff, c2.Bytes()[diff], expect[diff])
		}
		// The recovered container must be fully operational: run the tail
		// of the script and commit.
		writeU64(c2, 0, 0x1234)
		if err := c2.Checkpoint(); err != nil {
			t.Fatalf("fail point %d: post-recovery checkpoint: %v", failPoint, err)
		}
		dev.CrashDropAll()
		c3, err := OpenContainer(dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := readU64(c3, 0); got != 0x1234 {
			t.Fatalf("fail point %d: post-recovery epoch lost (%#x)", failPoint, got)
		}
		dev.Close()
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestRandomizedCrashWithEvictionFuzz runs randomized workloads on a device
// that spontaneously evicts cache lines, crashes at a random point, and
// verifies recovery.
func TestRandomizedCrashWithEvictionFuzz(t *testing.T) {
	for _, mode := range modes() {
		for seed := int64(0); seed < 8; seed++ {
			opts := Options{
				Region: region.Config{
					HeapSize:    8 * 4096,
					SegmentSize: 4096,
					BlockSize:   256,
					BackupRatio: 1.0,
				},
				Mode: mode,
			}
			l, err := region.NewLayout(opts.Region)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			dev := nvm.NewDevice(l.DeviceSize(), nvm.WithEvictionFuzz(0.05, rng))
			c, err := NewContainer(dev, opts)
			if err != nil {
				t.Fatal(err)
			}
			script := buildScript(rand.New(rand.NewSource(seed+100)), l.HeapSize(), 80, 9)
			shadow := make([]byte, l.HeapSize())
			cut := rng.Intn(len(script))
			for i, st := range script {
				if i == cut {
					break
				}
				if st.checkpoint {
					if err := c.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					copy(shadow, c.Bytes())
					continue
				}
				writeU64(c, st.off, st.val)
			}
			dev.Crash(rng)
			c2, err := OpenContainer(dev, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(c2.Bytes(), shadow) {
				d := firstDiff(c2.Bytes(), shadow)
				t.Fatalf("%v seed %d cut %d: recovered state differs at offset %d", mode, seed, cut, d)
			}
		}
	}
}

// TestCrashDuringRecovery crashes in the middle of the recovery protocol
// itself and verifies that a second recovery still lands on the committed
// state (recovery idempotence under failure).
func TestCrashDuringRecovery(t *testing.T) {
	for _, mode := range modes() {
		opts := smallOpts(mode)
		dev, c := newTestContainer(t, opts)
		for e := uint64(1); e <= 3; e++ {
			for s := 0; s < 6; s++ {
				writeU64(c, s*4096+16, e*10+uint64(s))
			}
			if err := c.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		writeU64(c, 0, 0xbad) // uncommitted
		want := make([]byte, c.Size())
		// Build expected state on a clean recovery of a cloned crash image.
		rng := rand.New(rand.NewSource(5))
		dev.Crash(rng)
		for fail := int64(1); ; fail += 7 {
			dev.FailAfter(fail)
			crashed := func() (crashed bool) {
				defer func() {
					if r := recover(); r != nil {
						if _, ok := r.(nvm.InjectedCrash); !ok {
							panic(r)
						}
						crashed = true
					}
				}()
				c2, err := OpenContainer(dev, opts)
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				copy(want, c2.Bytes())
				return false
			}()
			dev.FailAfter(-1)
			if !crashed {
				break
			}
			dev.Crash(rng)
		}
		// The final successful recovery defines want; every value written at
		// epoch 3 must be there.
		final, err := OpenContainer(dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 6; s++ {
			if got := readU64(final, s*4096+16); got != 30+uint64(s) {
				t.Fatalf("%v: segment %d = %d, want %d after crash-during-recovery chain", mode, s, got, 30+uint64(s))
			}
		}
	}
}

// TestCollectiveCheckpoint runs several application threads writing disjoint
// segments with collective checkpoints between phases.
func TestCollectiveCheckpoint(t *testing.T) {
	const threads = 4
	opts := smallOpts(ModeDefault)
	opts.Concurrent = true
	dev, c := newTestContainer(t, opts)
	g := NewCollective(c, threads)
	var wg sync.WaitGroup
	errs := make([]error, threads)
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for epoch := 0; epoch < 5; epoch++ {
				base := tid * 4 * 4096 // disjoint segment group per thread
				for i := 0; i < 20; i++ {
					writeU64(c, base+i*8, uint64(epoch*1000+tid*100+i))
				}
				if err := g.Checkpoint(); err != nil {
					errs[tid] = err
					return
				}
			}
		}(tid)
	}
	wg.Wait()
	for tid, err := range errs {
		if err != nil {
			t.Fatalf("thread %d: %v", tid, err)
		}
	}
	if c.CommittedEpoch() != 5 {
		t.Fatalf("committed epoch = %d, want 5 (collective checkpoints must coalesce)", c.CommittedEpoch())
	}
	dev.CrashDropAll()
	c2, err := OpenContainer(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	for tid := 0; tid < threads; tid++ {
		for i := 0; i < 20; i++ {
			want := uint64(4*1000 + tid*100 + i)
			if got := readU64(c2, tid*4*4096+i*8); got != want {
				t.Fatalf("thread %d slot %d = %d, want %d", tid, i, got, want)
			}
		}
	}
}

// TestConcurrentWritersSameSegment has threads hammering the same segment to
// exercise the per-segment CoW lock (§3.4.4).
func TestConcurrentWritersSameSegment(t *testing.T) {
	const threads = 4
	opts := smallOpts(ModeDefault)
	opts.Concurrent = true
	dev, c := newTestContainer(t, opts)
	g := NewCollective(c, threads)
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for epoch := 0; epoch < 4; epoch++ {
				for i := 0; i < 10; i++ {
					writeU64(c, tid*8+i*64, uint64(epoch+1)) // interleaved in segment 0
				}
				_ = g.Checkpoint()
			}
		}(tid)
	}
	wg.Wait()
	dev.CrashDropAll()
	c2, err := OpenContainer(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	for tid := 0; tid < threads; tid++ {
		for i := 0; i < 10; i++ {
			if got := readU64(c2, tid*8+i*64); got != 4 {
				t.Fatalf("thread %d slot %d = %d, want 4", tid, i, got)
			}
		}
	}
}

// TestCrashSweepRandomGeometry repeats the crash sweep over randomized
// container geometries (segment size, block size, backup ratio, mode), so
// the failure-atomicity argument is exercised across the whole
// configuration space rather than one layout.
func TestCrashSweepRandomGeometry(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep is slow")
	}
	rng := rand.New(rand.NewSource(2718))
	for trial := 0; trial < 10; trial++ {
		segLog := 12 + rng.Intn(4) // 4 KB .. 32 KB
		blkLog := 6 + rng.Intn(segLog-6+1)
		if blkLog > 12 {
			blkLog = 12
		}
		seg := 1 << segLog
		blk := 1 << blkLog
		if blk > seg {
			blk = seg
		}
		mode := ModeDefault
		if rng.Intn(2) == 1 {
			mode = ModeBuffered
		}
		// The script writes across the whole heap each epoch, so the backup
		// region must cover every segment (ratio < 1 is exercised by
		// TestCrashSweepWithStealing with a bounded script).
		opts := Options{
			Region: region.Config{
				HeapSize:    8 * seg,
				SegmentSize: seg,
				BlockSize:   blk,
				BackupRatio: 1.0,
			},
			Mode:             mode,
			EagerCoWSegments: []int{-1, 64}[rng.Intn(2)],
		}
		l, err := region.NewLayout(opts.Region)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		script := buildScript(rand.New(rand.NewSource(int64(trial))), l.HeapSize(), 50, 10)

		refDev := nvm.NewDevice(l.DeviceSize())
		refC, err := NewContainer(refDev, opts)
		if err != nil {
			t.Fatal(err)
		}
		runScript(refC, script, map[uint64][]byte{})
		s := refDev.Stats()
		total := s.Stores + s.Loads + s.CLWBs + s.SFences + s.WBINVDs + s.NTStoreBytes/64

		for probe := 0; probe < 12; probe++ {
			failPoint := 1 + rng.Int63n(total)
			dev := nvm.NewDevice(l.DeviceSize())
			c, err := NewContainer(dev, opts)
			if err != nil {
				t.Fatal(err)
			}
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
				dev.FailAfter(failPoint)
				runScript(c, script, shadows)
				return false
			}()
			dev.FailAfter(-1)
			if !crashed {
				continue
			}
			dev.Crash(rng)
			c2, err := OpenContainer(dev, opts)
			if err != nil {
				t.Fatalf("trial %d (seg=%d blk=%d mode=%v) fail %d: open: %v", trial, seg, blk, mode, failPoint, err)
			}
			expect, ok := shadows[c2.CommittedEpoch()]
			if !ok {
				t.Fatalf("trial %d fail %d: recovered to unseen epoch %d", trial, failPoint, c2.CommittedEpoch())
			}
			if !bytes.Equal(c2.Bytes(), expect) {
				t.Fatalf("trial %d (seg=%d blk=%d mode=%v eager=%d) fail %d: state differs at %d",
					trial, seg, blk, mode, opts.EagerCoWSegments, failPoint, firstDiff(c2.Bytes(), expect))
			}
		}
	}
}

// TestCrashSweepWBINVDPath forces the wbinvd checkpoint-flush path
// (LLCSize = 1) and sweeps crash points through it; the bulk write-back
// must be just as failure-atomic as the clwb loop.
func TestCrashSweepWBINVDPath(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep is slow")
	}
	opts := Options{
		Region:  region.Config{HeapSize: 8 * 4096, SegmentSize: 4096, BlockSize: 256, BackupRatio: 1},
		Mode:    ModeDefault,
		LLCSize: 1, // every checkpoint takes the wbinvd branch
	}
	l, err := region.NewLayout(opts.Region)
	if err != nil {
		t.Fatal(err)
	}
	script := buildScript(rand.New(rand.NewSource(5)), l.HeapSize(), 50, 10)

	refDev := nvm.NewDevice(l.DeviceSize())
	refC, err := NewContainer(refDev, opts)
	if err != nil {
		t.Fatal(err)
	}
	runScript(refC, script, map[uint64][]byte{})
	if refDev.Stats().WBINVDs == 0 {
		t.Fatal("wbinvd path not exercised")
	}
	s := refDev.Stats()
	total := s.Stores + s.Loads + s.CLWBs + s.SFences + s.WBINVDs + s.NTStoreBytes/64

	crashRng := rand.New(rand.NewSource(8))
	stride := total/150 + 1
	for fail := int64(1); fail < total; fail += stride {
		dev := nvm.NewDevice(l.DeviceSize())
		c, err := NewContainer(dev, opts)
		if err != nil {
			t.Fatal(err)
		}
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
			dev.FailAfter(fail)
			runScript(c, script, shadows)
			return false
		}()
		dev.FailAfter(-1)
		if !crashed {
			break
		}
		dev.Crash(crashRng)
		c2, err := OpenContainer(dev, opts)
		if err != nil {
			t.Fatalf("fail %d: %v", fail, err)
		}
		expect, ok := shadows[c2.CommittedEpoch()]
		if !ok {
			t.Fatalf("fail %d: recovered to unseen epoch %d", fail, c2.CommittedEpoch())
		}
		if !bytes.Equal(c2.Bytes(), expect) {
			t.Fatalf("fail %d: state differs from epoch %d at %d", fail, c2.CommittedEpoch(), firstDiff(c2.Bytes(), expect))
		}
	}
}

// TestConcurrentReadsAndWrites hammers the instrumented read and write
// paths from several goroutines under Concurrent mode; run with -race.
func TestConcurrentReadsAndWrites(t *testing.T) {
	opts := smallOpts(ModeDefault)
	opts.Concurrent = true
	_, c := newTestContainer(t, opts)
	var wg sync.WaitGroup
	for tid := 0; tid < 4; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			base := tid * 8192
			for i := 0; i < 500; i++ {
				writeU64(c, base+(i%100)*8, uint64(i))
				c.OnRead(base, 8)
				_ = c.Bytes()[base]
			}
		}(tid)
	}
	wg.Wait()
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}
