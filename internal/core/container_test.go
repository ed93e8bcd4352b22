package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"libcrpm/internal/nvm"
	"libcrpm/internal/region"
)

// smallOpts returns a geometry small enough to exercise multi-segment
// behaviour: 16 segments of 4 KB, 256 B blocks.
func smallOpts(mode Mode) Options {
	return Options{
		Region: region.Config{
			HeapSize:    16 * 4096,
			SegmentSize: 4096,
			BlockSize:   256,
			BackupRatio: 1.0,
		},
		Mode: mode,
	}
}

func newTestContainer(t *testing.T, opts Options) (*nvm.Device, *Container) {
	t.Helper()
	l, err := region.NewLayout(opts.Region)
	if err != nil {
		t.Fatal(err)
	}
	dev := nvm.NewDevice(l.DeviceSize())
	t.Cleanup(dev.Close)
	c, err := NewContainer(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	return dev, c
}

func writeU64(c *Container, off int, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	c.OnWrite(off, 8)
	c.Write(off, b[:])
}

func readU64(c *Container, off int) uint64 {
	return binary.LittleEndian.Uint64(c.Bytes()[off:])
}

func modes() []Mode { return []Mode{ModeDefault, ModeBuffered} }

func TestFreshContainerIsZero(t *testing.T) {
	for _, m := range modes() {
		_, c := newTestContainer(t, smallOpts(m))
		for _, b := range c.Bytes() {
			if b != 0 {
				t.Fatalf("%v: fresh container not zeroed", m)
			}
		}
		if c.CommittedEpoch() != 0 {
			t.Fatalf("%v: fresh epoch = %d", m, c.CommittedEpoch())
		}
	}
}

func TestCheckpointThenCrashRecoversState(t *testing.T) {
	for _, m := range modes() {
		opts := smallOpts(m)
		dev, c := newTestContainer(t, opts)
		writeU64(c, 0, 0xdeadbeef)
		writeU64(c, 5000, 42) // second segment
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		dev.CrashDropAll()
		c2, err := OpenContainer(dev, opts)
		if err != nil {
			t.Fatalf("%v: open after crash: %v", m, err)
		}
		if got := readU64(c2, 0); got != 0xdeadbeef {
			t.Fatalf("%v: off 0 = %#x, want 0xdeadbeef", m, got)
		}
		if got := readU64(c2, 5000); got != 42 {
			t.Fatalf("%v: off 5000 = %d, want 42", m, got)
		}
		if c2.CommittedEpoch() != 1 {
			t.Fatalf("%v: epoch = %d, want 1", m, c2.CommittedEpoch())
		}
	}
}

func TestUncheckpointedWritesAreDiscarded(t *testing.T) {
	for _, m := range modes() {
		opts := smallOpts(m)
		dev, c := newTestContainer(t, opts)
		writeU64(c, 0, 1)
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		writeU64(c, 0, 2)    // overwrites committed value
		writeU64(c, 8000, 3) // touches a new segment
		dev.CrashDropAll()
		c2, err := OpenContainer(dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := readU64(c2, 0); got != 1 {
			t.Fatalf("%v: off 0 = %d, want committed value 1", m, got)
		}
		if got := readU64(c2, 8000); got != 0 {
			t.Fatalf("%v: off 8000 = %d, want 0 (never committed)", m, got)
		}
	}
}

func TestUncheckpointedWritesDiscardedEvenIfPersisted(t *testing.T) {
	// The adversarial direction: every in-flight line persists, yet the
	// epoch was not committed, so recovery must still produce the previous
	// checkpoint.
	for _, m := range modes() {
		opts := smallOpts(m)
		dev, c := newTestContainer(t, opts)
		writeU64(c, 0, 1)
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		writeU64(c, 0, 2)
		dev.CrashPersistAll()
		c2, err := OpenContainer(dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := readU64(c2, 0); got != 1 {
			t.Fatalf("%v: off 0 = %d, want 1 despite persisted cache", m, got)
		}
	}
}

func TestMultipleEpochs(t *testing.T) {
	for _, m := range modes() {
		opts := smallOpts(m)
		dev, c := newTestContainer(t, opts)
		for e := uint64(1); e <= 10; e++ {
			writeU64(c, 0, e)
			writeU64(c, int(e)*4096, e*100) // walk across segments
			if err := c.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if c.CommittedEpoch() != e {
				t.Fatalf("%v: epoch = %d, want %d", m, c.CommittedEpoch(), e)
			}
		}
		dev.CrashDropAll()
		c2, err := OpenContainer(dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := readU64(c2, 0); got != 10 {
			t.Fatalf("%v: off 0 = %d, want 10", m, got)
		}
		for e := uint64(1); e <= 10; e++ {
			if got := readU64(c2, int(e)*4096); got != e*100 {
				t.Fatalf("%v: segment %d value = %d, want %d", m, e, got, e*100)
			}
		}
	}
}

func TestRepeatedWritesSameBlock(t *testing.T) {
	// Differential tracking across epochs: the same block dirtied every
	// epoch must always recover to the committed value.
	for _, m := range modes() {
		opts := smallOpts(m)
		dev, c := newTestContainer(t, opts)
		for e := uint64(1); e <= 6; e++ {
			writeU64(c, 128, e)
			if err := c.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		writeU64(c, 128, 999) // uncommitted
		dev.CrashDropAll()
		c2, err := OpenContainer(dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := readU64(c2, 128); got != 6 {
			t.Fatalf("%v: got %d, want 6", m, got)
		}
	}
}

func TestReopenWithoutCrash(t *testing.T) {
	for _, m := range modes() {
		opts := smallOpts(m)
		dev, c := newTestContainer(t, opts)
		writeU64(c, 100, 7)
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		// Clean shutdown: reopen the same device without a crash.
		c2, err := OpenContainer(dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := readU64(c2, 100); got != 7 {
			t.Fatalf("%v: clean reopen lost data: %d", m, got)
		}
	}
}

func TestRecoveryIsIdempotent(t *testing.T) {
	for _, m := range modes() {
		opts := smallOpts(m)
		dev, c := newTestContainer(t, opts)
		writeU64(c, 0, 11)
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		writeU64(c, 0, 22)
		dev.CrashDropAll()
		c2, err := OpenContainer(dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := c2.Recover(); err != nil { // run a second time
			t.Fatal(err)
		}
		if got := readU64(c2, 0); got != 11 {
			t.Fatalf("%v: double recovery gave %d, want 11", m, got)
		}
	}
}

func TestTwoSFencesPerCopyOnWrite(t *testing.T) {
	opts := smallOpts(ModeDefault)
	opts.EagerCoWSegments = -1 // isolate the lazy CoW path
	dev, c := newTestContainer(t, opts)
	// Epoch 1: establish checkpointed segments 0 and 1.
	writeU64(c, 0, 1)
	writeU64(c, 4096, 1)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before := dev.Stats().SFences
	writeU64(c, 0, 2) // first write to segment 0 this epoch: one CoW
	afterFirst := dev.Stats().SFences
	if got := afterFirst - before; got != 2 {
		t.Fatalf("CoW issued %d sfences, want exactly 2 (paper §3.4.1)", got)
	}
	writeU64(c, 8, 3) // same segment: no further fences
	if got := dev.Stats().SFences - afterFirst; got != 0 {
		t.Fatalf("second write to dirty segment issued %d sfences, want 0", got)
	}
	writeU64(c, 4096, 4) // second segment: two more
	if got := dev.Stats().SFences - afterFirst; got != 2 {
		t.Fatalf("second segment CoW issued %d sfences, want 2", got)
	}
}

func TestDifferentialCopyOnlyMovesDirtyBlocks(t *testing.T) {
	opts := smallOpts(ModeDefault)
	opts.EagerCoWSegments = -1
	dev, c := newTestContainer(t, opts)
	// Epoch 1: dirty the whole first segment so the pair is established with
	// a full copy.
	for off := 0; off < 4096; off += 256 {
		writeU64(c, off, 1)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Epoch 2: dirty one block only.
	writeU64(c, 512, 2)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Epoch 3: the CoW triggered by this write should copy exactly one
	// block (the block dirtied in epoch 2), not the whole segment.
	ntBefore := dev.Stats().NTStoreBytes
	writeU64(c, 1024, 3)
	moved := dev.Stats().NTStoreBytes - ntBefore
	if moved != 256 {
		t.Fatalf("differential CoW moved %d bytes, want 256 (one block)", moved)
	}
}

func TestCheckpointWithNoWritesIsCheap(t *testing.T) {
	for _, m := range modes() {
		opts := smallOpts(m)
		dev, c := newTestContainer(t, opts)
		writeU64(c, 0, 1)
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		ckptBytesBefore := c.Metrics().CheckpointBytes
		ntBefore := dev.Stats().NTStoreBytes
		if err := c.Checkpoint(); err != nil { // empty epoch
			t.Fatal(err)
		}
		if got := c.Metrics().CheckpointBytes - ckptBytesBefore; got != 0 {
			t.Fatalf("%v: empty checkpoint persisted %d bytes", m, got)
		}
		if got := dev.Stats().NTStoreBytes - ntBefore; got != 0 {
			t.Fatalf("%v: empty checkpoint NT-copied %d bytes", m, got)
		}
	}
}

func TestMetricsAccumulate(t *testing.T) {
	for _, m := range modes() {
		_, c := newTestContainer(t, smallOpts(m))
		writeU64(c, 0, 1)
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		mt := c.Metrics()
		if mt.Epochs != 1 {
			t.Fatalf("%v: epochs = %d", m, mt.Epochs)
		}
		if mt.TraceEvents == 0 {
			t.Fatalf("%v: no trace events recorded", m)
		}
		if mt.MetadataBytes <= 0 {
			t.Fatalf("%v: metadata bytes = %d", m, mt.MetadataBytes)
		}
		if m == ModeBuffered && mt.CheckpointBytes == 0 {
			t.Fatalf("buffered checkpoint copied nothing")
		}
	}
}

func TestOutOfRangeWritePanics(t *testing.T) {
	_, c := newTestContainer(t, smallOpts(ModeDefault))
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range OnWrite did not panic")
		}
	}()
	c.OnWrite(c.Size()-4, 8)
}

func TestRollbackOneEpoch(t *testing.T) {
	for _, m := range modes() {
		opts := smallOpts(m)
		opts.EagerCoWSegments = -1 // required for the two-epoch window (§3.6)
		dev, c := newTestContainer(t, opts)
		writeU64(c, 0, 1)
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		writeU64(c, 0, 2)
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		dev.CrashDropAll()
		// Coordinated recovery: open without recovering, agree on the
		// minimum epoch (here: 1), roll back, then recover.
		c2, err := OpenContainerDeferRecovery(dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := c2.RollbackOneEpoch(); err != nil {
			t.Fatal(err)
		}
		if err := c2.Recover(); err != nil {
			t.Fatal(err)
		}
		if got := readU64(c2, 0); got != 1 {
			t.Fatalf("%v: rollback gave %d, want epoch-1 value 1", m, got)
		}
		if c2.CommittedEpoch() != 1 {
			t.Fatalf("%v: epoch after rollback = %d", m, c2.CommittedEpoch())
		}
	}
}

func TestRollbackAtEpochZeroFails(t *testing.T) {
	opts := smallOpts(ModeDefault)
	opts.EagerCoWSegments = -1
	_, c := newTestContainer(t, opts)
	if err := c.RollbackOneEpoch(); err == nil {
		t.Fatal("rollback at epoch 0 succeeded")
	}
}

func TestRollbackWithEagerCoWFails(t *testing.T) {
	_, c := newTestContainer(t, smallOpts(ModeDefault))
	writeU64(c, 0, 1)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	writeU64(c, 0, 2)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := c.RollbackOneEpoch(); err == nil {
		t.Fatal("rollback with eager CoW enabled succeeded; epoch e-1 was already destroyed")
	}
}

func TestRollbackAfterWriteFails(t *testing.T) {
	opts := smallOpts(ModeDefault)
	opts.EagerCoWSegments = -1
	_, c := newTestContainer(t, opts)
	writeU64(c, 0, 1)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	writeU64(c, 0, 2)
	if err := c.RollbackOneEpoch(); err == nil {
		t.Fatal("rollback after epoch writes succeeded")
	}
}

func TestBackupExhaustionPanics(t *testing.T) {
	opts := smallOpts(ModeDefault)
	opts.Region.BackupRatio = 0.25 // 4 backups for 16 segments
	opts.EagerCoWSegments = -1
	_, c := newTestContainer(t, opts)
	// Commit all 16 segments so each holds checkpoint state.
	for s := 0; s < 16; s++ {
		writeU64(c, s*4096, 1)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r != ErrBackupExhausted {
			t.Fatalf("recovered %v, want ErrBackupExhausted", r)
		}
	}()
	// Dirtying 5 segments in one epoch exceeds the 4 backups; all pairs are
	// authoritative (SS_Backup) so none can be stolen.
	for s := 0; s < 5; s++ {
		writeU64(c, s*4096, 2)
	}
	t.Fatal("no panic despite exhausted backup region")
}

func TestBackupStealingAllowsRotation(t *testing.T) {
	// With 4 backups and 16 segments, dirtying a *different* set of <= 4
	// segments each epoch must work indefinitely: redundant pairs get
	// stolen.
	opts := smallOpts(ModeDefault)
	opts.Region.BackupRatio = 0.25
	opts.EagerCoWSegments = -1
	dev, c := newTestContainer(t, opts)
	for s := 0; s < 16; s++ {
		writeU64(c, s*4096, 1)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	val := uint64(2)
	for round := 0; round < 8; round++ {
		for i := 0; i < 4; i++ {
			s := (round*4 + i) % 16
			writeU64(c, s*4096, val)
		}
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		val++
	}
	dev.CrashDropAll()
	c2, err := OpenContainer(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Last round (round 7) wrote segments 12..15 with val 9.
	for i := 12; i < 16; i++ {
		if got := readU64(c2, i*4096); got != 9 {
			t.Fatalf("segment %d = %d, want 9", i, got)
		}
	}
}

func TestBufferedWorkingStateIsDRAM(t *testing.T) {
	opts := smallOpts(ModeBuffered)
	dev, c := newTestContainer(t, opts)
	ntBefore := dev.Stats().NTStoreBytes
	stBefore := dev.Stats().Stores
	writeU64(c, 0, 5)
	if dev.Stats().NTStoreBytes != ntBefore || dev.Stats().Stores != stBefore {
		t.Fatal("buffered-mode write touched the NVM device")
	}
	if got := readU64(c, 0); got != 5 {
		t.Fatalf("buffered read-back = %d", got)
	}
}

func TestBufferedAlternatesRegions(t *testing.T) {
	// Successive commits of the same segment must alternate between main
	// and backup so the previous checkpoint is never overwritten in place.
	opts := smallOpts(ModeBuffered)
	_, c := newTestContainer(t, opts)
	writeU64(c, 0, 1)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := c.meta.SegState(1, 0); st != region.SSMain {
		t.Fatalf("epoch 1 state = %v, want SS_Main", st)
	}
	writeU64(c, 0, 2)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := c.meta.SegState(0, 0); st != region.SSBackup {
		t.Fatalf("epoch 2 state = %v, want SS_Backup", st)
	}
	writeU64(c, 0, 3)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := c.meta.SegState(1, 0); st != region.SSMain {
		t.Fatalf("epoch 3 state = %v, want SS_Main", st)
	}
}

func TestBufferedSkippedEpochsStayCorrect(t *testing.T) {
	// A segment dirty at epochs 1 and 4 only: the region written at epoch 4
	// is three epochs stale; the pending bitmaps must schedule every block
	// it missed.
	opts := smallOpts(ModeBuffered)
	dev, c := newTestContainer(t, opts)
	writeU64(c, 0, 1)
	writeU64(c, 300, 10)
	if err := c.Checkpoint(); err != nil { // epoch 1
		t.Fatal(err)
	}
	for e := 2; e <= 3; e++ {
		writeU64(c, 8192, uint64(e)) // a different segment
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	writeU64(c, 0, 4)                      // back to segment 0; block at 300 untouched since e1
	if err := c.Checkpoint(); err != nil { // epoch 4
		t.Fatal(err)
	}
	dev.CrashDropAll()
	c2, err := OpenContainer(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := readU64(c2, 0); got != 4 {
		t.Fatalf("off 0 = %d, want 4", got)
	}
	if got := readU64(c2, 300); got != 10 {
		t.Fatalf("off 300 = %d, want 10 (stale-region catch-up failed)", got)
	}
	if got := readU64(c2, 8192); got != 3 {
		t.Fatalf("off 8192 = %d, want 3", got)
	}
}

func TestEagerCoWMatchesLazy(t *testing.T) {
	// Same op sequence with eager CoW on and off must produce identical
	// recovered states.
	run := func(eager int) []byte {
		opts := smallOpts(ModeDefault)
		opts.EagerCoWSegments = eager
		dev, c := newTestContainer(t, opts)
		for e := 0; e < 5; e++ {
			for i := 0; i < 10; i++ {
				writeU64(c, (e*1000+i*256)%(c.Size()-8), uint64(e*100+i))
			}
			if err := c.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		writeU64(c, 0, 0xffff) // uncommitted
		dev.CrashDropAll()
		c2, err := OpenContainer(dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]byte, c2.Size())
		copy(out, c2.Bytes())
		return out
	}
	lazy, eager := run(-1), run(1000)
	if !bytes.Equal(lazy, eager) {
		t.Fatal("eager and lazy CoW recovered different states")
	}
}

func TestEagerCoWSavesFencesNextEpoch(t *testing.T) {
	countFences := func(eager int) int64 {
		opts := smallOpts(ModeDefault)
		opts.EagerCoWSegments = eager
		dev, c := newTestContainer(t, opts)
		writeU64(c, 0, 1)
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		writeU64(c, 0, 2)
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		before := dev.Stats().SFences
		writeU64(c, 8, 3) // first write of epoch 3 to segment 0
		return dev.Stats().SFences - before
	}
	if got := countFences(-1); got != 2 {
		t.Fatalf("lazy: first write cost %d fences, want 2", got)
	}
	if got := countFences(1000); got != 0 {
		t.Fatalf("eager: first write cost %d fences, want 0", got)
	}
}

func TestDRAMAndNVMFootprint(t *testing.T) {
	_, c := newTestContainer(t, smallOpts(ModeBuffered))
	if c.DRAMFootprint() < c.Size() {
		t.Fatalf("buffered DRAM footprint %d < heap size %d", c.DRAMFootprint(), c.Size())
	}
	if c.NVMFootprint() < 2*c.Size() {
		t.Fatalf("NVM footprint %d < main+backup %d", c.NVMFootprint(), 2*c.Size())
	}
	_, cd := newTestContainer(t, smallOpts(ModeDefault))
	if cd.DRAMFootprint() >= cd.Size() {
		t.Fatalf("default-mode DRAM footprint %d should be bitmap-sized, not heap-sized", cd.DRAMFootprint())
	}
}

func TestNames(t *testing.T) {
	_, cd := newTestContainer(t, smallOpts(ModeDefault))
	_, cb := newTestContainer(t, smallOpts(ModeBuffered))
	if cd.Name() != "libcrpm-Default" || cb.Name() != "libcrpm-Buffered" {
		t.Fatalf("names: %q, %q", cd.Name(), cb.Name())
	}
}

// TestDirtyEstimateCountsThisEpochOnly: a byte-threshold cut policy reads
// what the current epoch has dirtied. Differential bits outlive a checkpoint
// until their segment's next copy-on-write; they are not this epoch's dirt.
// What early write-back already flushed still is — the estimate bounds what
// an epoch dirtied, the pending cut what its checkpoint will flush.
func TestDirtyEstimateCountsThisEpochOnly(t *testing.T) {
	opts := incOpts(ModeDefault) // lazy copy-on-write: the bits survive the cut
	opts.Region.HeapSize, opts.Region.SegmentSize = 4*65536, 65536
	_, c := newTestContainer(t, opts)
	for seg := 0; seg < 2; seg++ {
		for b := 0; b < 100; b++ {
			writeU64(c, seg*65536+b*256, 1)
		}
	}
	if got := c.DirtyEstimateBytes(); got != 200*256 {
		t.Fatalf("200 blocks stored, estimate %d B", got)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, blocks := c.DirtyInfo(); blocks != 200 {
		t.Fatalf("fixture: %d differential bits survive the cut, want 200", blocks)
	}
	if got := c.DirtyEstimateBytes(); got != 0 {
		t.Fatalf("no store since the cut, estimate %d B", got)
	}
	writeU64(c, 8, 2)
	if got := c.DirtyEstimateBytes(); got != 256 {
		t.Fatalf("one 8-byte store since the cut, estimate %d B, want one block", got)
	}
	c.BeginWriteThrough()
	writeU64(c, 65536+512, 3)
	c.EndWriteThrough()
	if est, pend := c.DirtyEstimateBytes(), c.PendingCutBytes(); est != 2*256 || pend != 256 {
		t.Fatalf("one block stored, one written through: estimate %d B, pending cut %d B; want 512 and 256", est, pend)
	}
}

// epochBlocks lists the blocks EpochRuns reports, failing the test unless the
// runs are block-aligned, ascending and disjoint.
func epochBlocks(t *testing.T, c *Container) ([]int, error) {
	t.Helper()
	var blocks []int
	err := c.EpochRuns(func(off, n int) {
		if off%256 != 0 || n <= 0 || n%256 != 0 {
			t.Fatalf("run [%d,+%d) is not whole blocks", off, n)
		}
		if k := len(blocks); k > 0 && off/256 <= blocks[k-1] {
			t.Fatalf("run at block %d after block %d: not ascending and disjoint", off/256, blocks[k-1])
		}
		for b := off / 256; b < (off+n)/256; b++ {
			blocks = append(blocks, b)
		}
	})
	return blocks, err
}

// TestEpochRuns pins the accessor a replica delta is captured with: exactly
// the blocks the epoch wrote, in both modes — none a committed cut already
// holds, however many differential bits outlive it — and, since stores the
// write barrier staged sit in no dirty set until the replay lifts them, a
// refusal while any pipeline is in flight (a deferred replay included)
// rather than a run list that misses them.
func TestEpochRuns(t *testing.T) {
	for _, mode := range modes() {
		t.Run(mode.String(), func(t *testing.T) {
			_, c := newTestContainer(t, incOpts(mode))
			expect := func(stage string, want ...int) {
				t.Helper()
				got, err := epochBlocks(t, c)
				if err != nil || !slices.Equal(got, want) {
					t.Fatalf("%s: epoch blocks %v, %v; want %v", stage, got, err, want)
				}
			}
			// Blocks 15 and 16 are adjacent across a segment boundary.
			for _, off := range []int{8, 15*256 + 248, 16 * 256, 49*256 + 40} {
				writeU64(c, off, 1)
			}
			expect("first epoch", 0, 15, 16, 49)
			if err := c.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			expect("after the cut")
			writeU64(c, 17*256, 2)
			expect("second epoch", 17)

			if err := c.CheckpointBegin(); err != nil {
				t.Fatal(err)
			}
			if _, err := epochBlocks(t, c); !errors.Is(err, errPipelineInFlight) {
				t.Fatalf("incremental cut in flight: err %v, want errPipelineInFlight", err)
			}
			for _, step := range []func() error{func() error { _, err := c.CheckpointStep(-1); return err }, c.CheckpointCommit, c.CheckpointFinish} {
				if err := step(); err != nil {
					t.Fatal(err)
				}
			}
			expect("after the incremental cut")
			if mode == ModeBuffered {
				return
			}

			// Segment 1 owes the new epoch a copy: deferred, its first store
			// is staged behind the write barrier.
			if !c.DeferCoW(foreverPS) {
				t.Fatal("fixture: no copy-on-write deferred")
			}
			writeU64(c, 18*256, 3)
			if !c.inc.staged.Test(18) || c.dirtyBlocks.Test(18) {
				t.Fatal("fixture: the store was not staged")
			}
			if _, err := epochBlocks(t, c); !errors.Is(err, errPipelineInFlight) {
				t.Fatalf("deferred replay with a store staged: err %v, want errPipelineInFlight", err)
			}
			if c.StepCoW(0) != 0 {
				t.Fatal("fixture: the replay did not drain")
			}
			expect("after the replay lifted the staged store", 18)
		})
	}
}
