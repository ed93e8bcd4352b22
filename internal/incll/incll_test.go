package incll

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"libcrpm/internal/nvm"
)

const heapSize = 24 * 1024 // not a multiple of DataPerLine: exercises the partial tail line

func mustNew(t *testing.T, size int) *Backend {
	t.Helper()
	b, err := New(size)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func write(b *Backend, off int, src []byte) {
	b.OnWrite(off, len(src))
	b.Write(off, src)
}

func writeU64(b *Backend, off int, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	write(b, off, buf[:])
}

func snapshot(b *Backend) []byte {
	s := make([]byte, b.Size())
	copy(s, b.Bytes())
	return s
}

func TestCheckpointAndRecoverDropAll(t *testing.T) {
	b := mustNew(t, heapSize)
	writeU64(b, 0, 1)
	writeU64(b, 1000, 2)
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	committed := snapshot(b)
	writeU64(b, 0, 99)
	writeU64(b, 5000, 98)
	b.Device().CrashDropAll()
	r, err := Open(heapSize, b.Device())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Bytes(), committed) {
		t.Fatal("recovered state differs from the committed epoch")
	}
	if r.CommittedEpoch() != 1 {
		t.Fatalf("committed epoch = %d, want 1", r.CommittedEpoch())
	}
}

func TestRecoverRollsBackPersistedUncommitted(t *testing.T) {
	b := mustNew(t, heapSize)
	writeU64(b, 256, 7)
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	committed := snapshot(b)
	writeU64(b, 256, 8) // same line, new epoch: fresh inline entry
	writeU64(b, 300, 9) // second range in the line: side log
	b.Device().CrashPersistAll()
	r, err := Open(heapSize, b.Device())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Bytes(), committed) {
		t.Fatal("persisted uncommitted writes were not rolled back")
	}
}

func TestInlineCoverageSkipsRelogging(t *testing.T) {
	b := mustNew(t, heapSize)
	writeU64(b, 512, 1)
	writeU64(b, 512, 2)
	writeU64(b, 512, 3)
	if got := b.InlineRecords(); got != 1 {
		t.Fatalf("inline records = %d, want 1 (coverage must skip re-logging)", got)
	}
	if b.SideRecords() != 0 {
		t.Fatalf("side records = %d, want 0", b.SideRecords())
	}
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	writeU64(b, 512, 4)
	if got := b.InlineRecords(); got != 2 {
		t.Fatalf("inline records after new epoch = %d, want 2", got)
	}
}

func TestOverflowRoutesToSideLog(t *testing.T) {
	b := mustNew(t, heapSize)
	big := make([]byte, 64) // exceeds SlotSize: side log
	for i := range big {
		big[i] = byte(i)
	}
	write(b, 0, big)
	if b.InlineRecords() != 0 || b.SideRecords() != 1 {
		t.Fatalf("64B write: inline=%d side=%d, want 0/1", b.InlineRecords(), b.SideRecords())
	}
	// Spans lines 0 and 1; line 0 is already side-covered this epoch, so
	// only line 1 adds a record.
	span := make([]byte, 8)
	write(b, DataPerLine-4, span)
	if b.SideRecords() != 2 {
		t.Fatalf("line-spanning write: side=%d, want 2", b.SideRecords())
	}
	// Inline writes into side-covered lines are free this epoch.
	writeU64(b, 8, 5)
	if b.InlineRecords() != 0 || b.SideRecords() != 2 {
		t.Fatalf("covered write logged: inline=%d side=%d", b.InlineRecords(), b.SideRecords())
	}
}

func TestSecondDisjointRangeSideLogs(t *testing.T) {
	b := mustNew(t, heapSize)
	writeU64(b, 0, 1)  // inline entry [0,8)
	writeU64(b, 64, 2) // same line, disjoint: full-image side log
	if b.InlineRecords() != 1 || b.SideRecords() != 1 {
		t.Fatalf("inline=%d side=%d, want 1/1", b.InlineRecords(), b.SideRecords())
	}
	// Now the whole line is covered; further ranges are free.
	writeU64(b, 96, 3)
	if b.SideRecords() != 1 {
		t.Fatalf("side records = %d, want 1", b.SideRecords())
	}
}

func TestRollbackOneEpoch(t *testing.T) {
	b := mustNew(t, heapSize)
	writeU64(b, 0, 1)
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	epoch1 := snapshot(b)
	writeU64(b, 0, 2)
	big := make([]byte, 100)
	write(b, 4096, big)
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Crash inside the commit-barrier window: this rank is one epoch
	// ahead of the global minimum and must rewind to epoch 1.
	b.Device().CrashPersistAll()
	r, err := OpenDeferRecovery(heapSize, b.Device())
	if err != nil {
		t.Fatal(err)
	}
	if r.CommittedEpoch() != 2 {
		t.Fatalf("committed epoch = %d, want 2", r.CommittedEpoch())
	}
	if err := r.RollbackOneEpoch(); err != nil {
		t.Fatal(err)
	}
	if err := r.Recover(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Bytes(), epoch1) {
		t.Fatal("rollback did not restore epoch 1 exactly")
	}
	if r.CommittedEpoch() != 1 {
		t.Fatalf("epoch after rollback = %d, want 1", r.CommittedEpoch())
	}
	// The container keeps working.
	writeU64(r, 0, 7)
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

func TestRollbackAtEpochZero(t *testing.T) {
	b := mustNew(t, heapSize)
	if err := b.RollbackOneEpoch(); !errors.Is(err, ErrNoPreviousEpoch) {
		t.Fatalf("rollback at epoch 0 = %v, want ErrNoPreviousEpoch", err)
	}
}

func TestMediaFaultsOnDeadRanges(t *testing.T) {
	b := mustNew(t, heapSize)
	rng := rand.New(rand.NewSource(7))
	var committed []byte
	for i := 0; i < 120; i++ {
		n := 1 + rng.Intn(80) // mixes inline and overflow
		off := rng.Intn(heapSize - n)
		buf := make([]byte, n)
		rng.Read(buf)
		write(b, off, buf)
		if i%30 == 29 {
			committed = snapshot(b)
			if err := b.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Crash mid-epoch, then corrupt everything recovery must not read.
	b.Device().Crash(rand.New(rand.NewSource(8)))
	dead, err := DeadRanges(b.Device(), heapSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(dead) == 0 {
		t.Fatal("no dead ranges reported")
	}
	for _, r := range dead {
		b.Device().CorruptRange(r.Off, r.Len)
	}
	r, err := Open(heapSize, b.Device())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Bytes(), committed) {
		t.Fatal("recovery depended on dead media content")
	}
}

func TestCorruptLiveRecordDetected(t *testing.T) {
	b := mustNew(t, heapSize)
	writeU64(b, 0, 1)
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 100)
	write(b, 0, big) // live side record for the uncommitted epoch
	b.Device().CrashPersistAll()
	// Damage the live record's pre-image: recovery needs it and must
	// refuse rather than install a wrong state.
	h := int((b.CommittedEpoch() + 1) & 1)
	b.Device().CorruptRange(b.halfOff(h)+64, 16)
	if _, err := Open(heapSize, b.Device()); !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("open over corrupt live record = %v, want ErrCorruptLog", err)
	}
}

func TestCrashAtEveryPrimitive(t *testing.T) {
	script := func(b *Backend, shadows *[][]byte) {
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 50; i++ {
			if i%9 == 8 {
				*shadows = append(*shadows, snapshot(b))
				if err := b.Checkpoint(); err != nil {
					panic(err)
				}
				continue
			}
			n := 1 + rng.Intn(60)
			off := rng.Intn(heapSize - n)
			buf := make([]byte, n)
			rng.Read(buf)
			write(b, off, buf)
		}
	}
	ref := mustNew(t, heapSize)
	shadows := [][]byte{make([]byte, heapSize)}
	script(ref, &shadows)
	s := ref.Device().Stats()
	total := s.Stores + s.Loads + s.CLWBs + s.SFences + s.NTStoreBytes/64

	crashRng := rand.New(rand.NewSource(4))
	for fail := int64(1); fail < total; fail += 3 {
		b := mustNew(t, heapSize)
		sh := [][]byte{make([]byte, heapSize)}
		crashed := func() (c bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(nvm.InjectedCrash); !ok {
						panic(r)
					}
					c = true
				}
			}()
			b.Device().FailAfter(fail)
			script(b, &sh)
			return false
		}()
		b.Device().FailAfter(-1)
		if !crashed {
			break
		}
		b.Device().Crash(crashRng)
		r, err := Open(heapSize, b.Device())
		if err != nil {
			t.Fatalf("fail %d: %v", fail, err)
		}
		e := int(r.CommittedEpoch())
		if e >= len(sh) {
			t.Fatalf("fail %d: recovered epoch %d, only %d committed", fail, e, len(sh)-1)
		}
		if !bytes.Equal(r.Bytes(), sh[e]) {
			t.Fatalf("fail %d: recovered state differs from committed epoch %d", fail, e)
		}
	}
}

func TestMetricsAndFlushedLines(t *testing.T) {
	b := mustNew(t, heapSize)
	writeU64(b, 0, 1)
	big := make([]byte, 100)
	write(b, 10*DataPerLine, big) // one line: one side record
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	m := b.Metrics()
	if m.Epochs != 1 {
		t.Fatalf("epochs = %d", m.Epochs)
	}
	// 8 inline undo bytes + one 256B side record.
	if m.CheckpointBytes != 8+RecordSize {
		t.Fatalf("checkpoint bytes = %d, want %d", m.CheckpointBytes, 8+RecordSize)
	}
	if m.TraceEvents != 2 {
		t.Fatalf("trace events = %d, want 2", m.TraceEvents)
	}
	if m.FlushedLines == 0 {
		t.Fatal("FlushedLines not attributed")
	}
	if m.FlushedLines != b.Device().Stats().FlushedLines {
		t.Fatal("FlushedLines disagrees with the device")
	}
	d := b.Metrics().Sub(m)
	if d.FlushedLines != 0 || d.Epochs != 0 {
		t.Fatalf("Sub over identical metrics = %+v", d)
	}
}

func TestCheckpointIsO1(t *testing.T) {
	// The commit cost must not scale with the epoch's write set: same
	// fence/store footprint for 1 write and for 500.
	cost := func(writes int) (stores, fences int64) {
		b := mustNew(t, 1<<20)
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < writes; i++ {
			writeU64(b, rng.Intn(1<<17)*8, rng.Uint64())
		}
		before := b.Device().Stats()
		if err := b.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		after := b.Device().Stats()
		return after.Stores - before.Stores, after.SFences - before.SFences
	}
	s1, f1 := cost(1)
	s2, f2 := cost(500)
	if s1 != s2 || f1 != f2 {
		t.Fatalf("checkpoint cost scales with writes: %d/%d stores, %d/%d fences", s1, s2, f1, f2)
	}
	if f1 != 2 {
		t.Fatalf("commit fences = %d, want 2", f1)
	}
}

func TestOpenValidates(t *testing.T) {
	b := mustNew(t, heapSize)
	if _, err := Open(heapSize*2, b.Device()); err == nil {
		t.Fatal("mismatched heap size accepted")
	}
	dev := nvm.NewDevice(1 << 20)
	if _, err := Open(heapSize, dev); err == nil {
		t.Fatal("unformatted device accepted")
	}
}

// TestInlineLogCrashBetweenSlotAndTag is the minimised script behind every
// torture violation of seeds 2–5: two epochs leave an inline entry of a
// committed epoch in line 0's meta line, and the third epoch's first store to
// another range of the line crashes at each of its primitives in turn. The
// 64-byte meta line is atomic, the two stores that build the new entry in it
// are not: with the tag stored first, a crash on the slot store whose image
// keeps the line recovers the current epoch's tag over the previous entry's
// slot, and "rolls back" [16,24) to 0x1111.
func TestInlineLogCrashBetweenSlotAndTag(t *testing.T) {
	script := func(b *Backend) {
		for _, v := range []uint64{0x1111, 0x2222} {
			writeU64(b, 0, v)
			if err := b.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	ref := mustNew(t, heapSize)
	script(ref)
	committed := snapshot(ref)
	base := ref.Device().PrimitiveCount()
	writeU64(ref, 16, 0x3333)
	prims := ref.Device().PrimitiveCount() - base

	images := []struct {
		name string
		at   func(at int64) nvm.CrashPolicy
	}{
		{"persist-all", func(int64) nvm.CrashPolicy { return nvm.PersistAll }},
		{"drop-all", func(int64) nvm.CrashPolicy { return nvm.DropAll }},
		{"seeded", func(at int64) nvm.CrashPolicy { return nvm.SeededCrash(rand.New(rand.NewSource(at))) }},
	}
	for _, image := range images {
		name := image.name
		for at := int64(0); at < prims; at++ {
			b := mustNew(t, heapSize)
			script(b)
			b.Device().FailAfter(at)
			func() {
				defer func() {
					if _, ok := recover().(nvm.InjectedCrash); !ok {
						t.Fatalf("%s: primitive %d of %d never crashed", name, at, prims)
					}
				}()
				writeU64(b, 16, 0x3333)
			}()
			b.Device().CrashWith(image.at(at))
			r, err := Open(heapSize, b.Device())
			if err != nil {
				t.Fatalf("%s, crash at primitive %d of the store: %v", name, at, err)
			}
			if r.CommittedEpoch() != 2 {
				t.Fatalf("%s, crash at primitive %d of the store: recovered epoch %d, want 2", name, at, r.CommittedEpoch())
			}
			if !bytes.Equal(r.Bytes(), committed) {
				t.Fatalf("%s, crash at primitive %d of the store: [16,24) = %#x, committed epoch 2 holds 0",
					name, at, binary.LittleEndian.Uint64(r.Bytes()[16:]))
			}
		}
	}
}

// TestDirtyEstimateCountsEveryLoggedLineOnce: the byte-threshold policy's
// input is the touched-line footprint of the epoch, whichever log a line's
// first store of the epoch went to.
func TestDirtyEstimateCountsEveryLoggedLineOnce(t *testing.T) {
	b := mustNew(t, heapSize)
	want := func(lines int, when string) {
		t.Helper()
		if got := b.DirtyEstimateBytes(); got != uint64(lines)*LineSpan {
			t.Fatalf("%s: dirty estimate %d B, want %d lines = %d B", when, got, lines, lines*LineSpan)
		}
	}
	writeU64(b, 0, 1)
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want(0, "after a cut")
	writeU64(b, 0, 2)
	want(1, "one 8-byte store (inline-logged)")
	writeU64(b, 0, 3)
	want(1, "a second store to the same range")
	writeU64(b, 100, 4)
	want(1, "a second range of the line (side-logged on top of its inline entry)")
	write(b, 3*DataPerLine-4, make([]byte, 8))
	want(3, "a store spanning two fresh lines (both side-logged)")
	writeU64(b, 3*DataPerLine, 5)
	want(3, "an inline store into a side-covered line")
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want(0, "after the next cut")
}
