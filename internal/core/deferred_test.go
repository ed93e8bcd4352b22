package core

import (
	"bytes"
	"slices"
	"testing"

	"libcrpm/internal/nvm"
	"libcrpm/internal/obs"
	"libcrpm/internal/region"
)

// TestDeferCoWGate: a deferral is scheduled only if the caller's idle time —
// the gaps StepCoW was shown, and what DeferCoW is told of beside them — had
// room for the replay and the pre-flush it displaces; a gap is measured
// whether or not work is pending, by what a quantum would retire in it, and no
// stretch of time twice; and the measurement is spent by the call that reads
// it.
func TestDeferCoWGate(t *testing.T) {
	dev, c := preCopyFixture(t, incOpts(ModeDefault))
	clock := dev.Clock()
	owed := int64(4096 + 2*6*256)
	p0 := dev.PrimitiveCount()
	if c.DeferCoW(0) {
		t.Fatal("deferred with no idle time on record")
	}
	// Room for exactly the bytes owed is not room for the pre-flush beside
	// them, let alone the margin.
	perBlk := c.replayBlockPS()
	fence := dev.Cost().SFencePS
	gap := fence + owed/256*perBlk
	c.StepCoW(gap)
	c.StepCoW(gap) // the same gap again, and a part of it: counted once
	c.StepCoW(gap / 2)
	if c.gapBytes != owed {
		t.Fatalf("a gap sized for %d bytes was booked as %d", owed, c.gapBytes)
	}
	if c.DeferCoW(0) || c.gapBytes != 0 {
		t.Fatalf("deferred on room for the copies alone, or the measurement outlived its verdict (%d)", c.gapBytes)
	}
	// Idle time in slivers too short for a block and its fence is no room.
	for i := 0; i < 1000; i++ {
		clock.Advance(fence + perBlk)
		c.StepCoW(fence + perBlk - 1)
	}
	if c.DeferCoW(0) {
		t.Fatal("deferred on a thousand gaps none of which fits a block")
	}
	// The gate's own arithmetic, to the block: one gap a block short of what
	// the replay and the flush beside it need, with the margin, then the
	// block.
	need := owed * (perBlk + c.flushBlockPS()) / perBlk * deferMarginPct / 100
	blocks := (need + 255) / 256
	clock.Advance(2 * fence)
	c.StepCoW(fence + (blocks-1)*perBlk)
	if c.DeferCoW(0) {
		t.Fatalf("deferred on room for %d blocks, the gate wants %d", blocks-1, blocks)
	}
	if dev.PrimitiveCount() != p0 || c.inc != nil {
		t.Fatal("a declined deferral issued primitives or left a replay scheduled")
	}
	clock.Advance(fence + blocks*perBlk)
	c.StepCoW(fence + (blocks-1)*perBlk)
	if !c.DeferCoW(fence + perBlk) { // the last block in time no gap showed
		t.Fatalf("not deferred on room for the %d blocks the gate wants", blocks)
	}
	if c.inc == nil || !c.inc.deferred {
		t.Fatal("a deferral reported scheduled is not in flight")
	}
	if dev.PrimitiveCount() != p0 {
		t.Fatal("scheduling issued device primitives")
	}
	if got := c.inc.replayRem; got != int(owed) {
		t.Fatalf("%d bytes scheduled, want %d", got, owed)
	}
	for _, seg := range []int{1, 2, 5} {
		if !c.inc.cutSegs.Test(seg) {
			t.Fatalf("segment %d owes a copy and is not quarantined", seg)
		}
	}
	if n := c.inc.cutSegs.Count(); n != 3 {
		t.Fatalf("%d segments quarantined, want the three that owe a copy", n)
	}
	// While it is in flight a second call changes nothing, and a rollback is
	// out of the question.
	if c.DeferCoW(foreverPS) || c.inc.replayRem != int(owed) {
		t.Fatal("a second deferral displaced the first")
	}
	if err := c.RollbackOneEpoch(); err == nil {
		t.Fatal("rollback accepted with a replay in flight")
	}
}

// TestStepCoWQuanta: the first store into a quarantined segment copies
// nothing; gap quanta retire the copies, sized from the cost model to end
// inside the gap, never less than a block however short the gap, never more
// than the cap however long; and once the replay is over the segments are
// ordinary ground again.
func TestStepCoWQuanta(t *testing.T) {
	dev, c := preCopyFixture(t, incOpts(ModeDefault))
	rec := obs.NewRecorder(dev.Clock())
	c.SetTrace(rec)
	if !c.DeferCoW(1 << 40) {
		t.Fatal("not deferred with idle time to spare")
	}
	cow, fences := c.CoWBytes(), dev.Stats().SFences
	writeU64(c, 5*4096+8, 0xABCD)
	writeU64(c, 1*4096+8, 0xABCD)
	if c.CoWBytes() != cow || dev.Stats().SFences != fences {
		t.Fatal("a store into a quarantined segment copied or fenced")
	}
	if n := dev.DirtyLineCount(); n != 0 {
		t.Fatalf("%d dirty lines after two staged stores: a staged store must not be able to reach the media", n)
	}
	if segs, _ := c.DirtyInfo(); segs != 0 {
		t.Fatalf("%d segments dirty after two staged stores", segs)
	}
	// Staged segments first, lowest first: segment 1's six blocks, one per
	// quantum in gaps too short for anything.
	for i := 1; i <= 6; i++ {
		c.StepCoW(1)
		if got := c.CoWBytes() - cow; got != int64(i*256) {
			t.Fatalf("quantum %d in a 1 ps gap: %d bytes copied so far, want one block each", i, got)
		}
	}
	// A gap sized for three blocks and the fence retires three, within it.
	cost := dev.Cost()
	gap := cost.SFencePS + 3*c.replayBlockPS()
	t0 := dev.Clock().NowPS()
	c.StepCoW(gap + 1000) // segment 1's flip and segment 5's pairing ride along, unreserved
	if got := c.CoWBytes() - cow; got != 9*256 {
		t.Fatalf("%d bytes copied after a three-block gap, want nine blocks in all", got)
	}
	over := dev.Clock().NowPS() - t0 - gap
	if extra := cost.SFencePS + 2*(cost.StorePS+cost.CLWBPS+cost.SFenceLinePS); over > extra {
		t.Fatalf("the quantum ran %d ps past its gap, more than the segment flip and the pairing entry (%d ps) its sizing leaves out", over, extra)
	}
	if e := int(c.CommittedEpoch() % 2); c.meta.SegState(e, 1) != region.SSBackup || c.inc.cutSegs.Test(1) {
		t.Fatal("segment 1 is copied in full and still quarantined")
	}
	// However long the gap, a quantum while serving stops at the cap.
	limit := c.replayQuantumCap()
	before := c.CoWBytes()
	c.StepCoW(1 << 50)
	if got := c.CoWBytes() - before; got > limit || got == 0 {
		t.Fatalf("a quantum in an endless gap copied %d bytes, cap %d", got, limit)
	}
	for c.StepCoW(1<<50) > 0 {
	}
	if c.inc != nil {
		t.Fatal("the replay is drained and still in flight")
	}
	if got, want := c.CoWBytes()-cow, int64(4096+2*6*256); got != want {
		t.Fatalf("the replay copied %d bytes, scheduled %d", got, want)
	}
	for _, s := range rec.Snapshot("").Spans {
		if s.Name == "cow" || s.Name == "pre-copy" {
			t.Fatalf("a %s span: while serving, replay quanta are ckpt-replay spans", s.Name)
		}
	}
	if segs, blocks := c.DirtyInfo(); segs != 2 || blocks != 2 {
		t.Fatalf("%d segments and %d blocks dirty after the lift, want the two staged stores", segs, blocks)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if spanCount(rec, "ckpt-replay", 1) != 0 {
		t.Fatal("a checkpoint after the replay finished drained a replay")
	}
	dev.CrashDropAll()
	c2, err := OpenContainer(dev, incOpts(ModeDefault))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := readU64(c2, 5*4096+8), readU64(c2, 1*4096+8); a != 0xABCD || b != 0xABCD {
		t.Fatalf("staged stores committed as %#x, %#x", a, b)
	}
}

// TestDeferCoWNeverStealsABackup: an unpaired segment is deferred only while
// a free backup is left for it. Scheduling takes none, the replay takes the
// free ones, and a segment there is no free backup for keeps its
// copy-on-write inline — where stealing is the protocol's business — so no
// clean segment ever loses its pair to a deferral.
func TestDeferCoWNeverStealsABackup(t *testing.T) {
	opts := incOpts(ModeDefault)
	opts.Region.BackupRatio = 0.25 // four backups for sixteen segments
	_, c := newTestContainer(t, opts)
	for seg := 0; seg < 6; seg++ {
		writeU64(c, seg*4096, uint64(seg)+1)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if len(c.freeBackups) != 4 {
		t.Fatalf("%d free backups, want 4", len(c.freeBackups))
	}
	if !c.DeferCoW(foreverPS) || c.inc.replayRem != 4*4096 {
		t.Fatal("want the four segments there is a free backup for scheduled, whole")
	}
	c.StepCoW(0)
	for seg := 0; seg < 6; seg++ {
		if paired := c.mainToBackup[seg] != region.NoPair; paired != (seg < 4) {
			t.Fatalf("segment %d paired=%v after the replay", seg, paired)
		}
	}
	// Next epoch every backup is taken: two by segments that hold their own
	// checkpoint state again and owe a differential copy, two by clean
	// segments whose backup is the checkpoint state — a steal's victims, were
	// segments 4 and 5 deferred too.
	for seg := 0; seg < 2; seg++ {
		writeU64(c, seg*4096+8, 7)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	pairs := slices.Clone(c.mainToBackup)
	if !c.DeferCoW(foreverPS) || c.inc.replayRem != 2*256 {
		t.Fatal("want the two differential blocks scheduled")
	}
	c.StepCoW(0)
	if !slices.Equal(pairs, c.mainToBackup) {
		t.Fatalf("pairings %v before the deferral, %v after: a backup changed hands", pairs, c.mainToBackup)
	}
	e := int(c.CommittedEpoch() % 2)
	for seg := 0; seg < 6; seg++ {
		want := region.SSMain
		if c.mainToBackup[seg] != region.NoPair {
			want = region.SSBackup
		}
		if got := c.meta.SegState(e, seg); got != want {
			t.Fatalf("segment %d in state %v after the replay, want %v", seg, got, want)
		}
	}
}

// TestDeferCoWReservesNoBackup: the free backups a deferral counts on are
// counted, not claimed. Stores into the segments it had to skip copy inline
// and take them first; the replay then finds nothing free for the unpaired
// segments at the back of its quarantine and lets them go uncopied — it does
// not steal, it does not panic where inline copies would not have needed a
// backup at all — and they copy at their first store like any other segment.
func TestDeferCoWReservesNoBackup(t *testing.T) {
	opts := incOpts(ModeDefault)
	opts.Region.BackupRatio = 0.25 // four backups for sixteen segments
	dev, c := newTestContainer(t, opts)
	rec := obs.NewRecorder(dev.Clock())
	c.SetTrace(rec)
	for seg := 0; seg < 6; seg++ {
		writeU64(c, seg*4096, uint64(seg)+1)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(c.Bytes())
	if !c.DeferCoW(foreverPS) || c.inc.cutSegs.Count() != 4 {
		t.Fatal("want segments 0..3 deferred, one per free backup")
	}
	// Between the deferral and the first quantum: the skipped segments.
	writeU64(c, 4*4096+8, 44)
	writeU64(c, 5*4096+8, 55)
	if c.mainToBackup[4] == region.NoPair || c.mainToBackup[5] == region.NoPair || len(c.freeBackups) != 2 {
		t.Fatal("the inline copies did not take two of the free backups")
	}
	pairs := slices.Clone(c.mainToBackup)
	for c.StepCoW(1<<50) > 0 {
	}
	if c.inc != nil {
		t.Fatal("the replay is drained and still in flight")
	}
	if got := c.CoWBytes(); got != 4*4096 {
		t.Fatalf("%d bytes copied in all, want the two inline segments and the two there was a backup left for", got)
	}
	e := int(c.CommittedEpoch() % 2)
	for seg := 0; seg < 6; seg++ {
		paired, state := c.mainToBackup[seg] != region.NoPair, c.meta.SegState(e, seg)
		if dropped := seg == 2 || seg == 3; paired == dropped || (state == region.SSMain) != dropped {
			t.Fatalf("segment %d: paired=%v in state %v after the replay", seg, paired, state)
		}
	}
	for _, seg := range []int{4, 5} {
		if c.mainToBackup[seg] != pairs[seg] {
			t.Fatalf("segment %d's backup changed hands", seg)
		}
	}
	// A dropped segment is ordinary ground: its first store copies it inline,
	// and finds its backup the way the protocol always has — here by moving
	// home the state of a segment copied above and not written since.
	writeU64(c, 2*4096+8, 22)
	if c.mainToBackup[2] == region.NoPair || c.CoWBytes() != 5*4096 {
		t.Fatal("the dropped segment's first store did not copy it inline")
	}
	dev.CrashDropAll()
	c2, err := OpenContainer(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c2.Bytes(), want) {
		t.Fatalf("recovered state differs from the committed epoch at offset %d", firstDiff(c2.Bytes(), want))
	}
}

// TestDeferredReplayStealsLikeAnInlineCopy: with backups short, what a
// deferred replay holds back from a steal is what it is using, no more. A
// quarantined segment it has not reached gives up its redundant backup to a
// store outside the quarantine exactly as it would with its copy inline. A
// segment with a store staged that finds its counted backup gone steals for
// itself, as that store would have — but never from a segment the same
// quantum has just copied and not yet flipped: that backup is about to be
// the segment's only checkpoint state.
func TestDeferredReplayStealsLikeAnInlineCopy(t *testing.T) {
	opts := incOpts(ModeDefault)
	opts.Region.BackupRatio = 0.25
	fixture := func() (*nvm.Device, *Container, []byte) {
		dev, c := newTestContainer(t, opts)
		for seg := 0; seg < 3; seg++ {
			writeU64(c, seg*4096, uint64(seg)+1)
		}
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		preCopy(c) // 0..2 paired, their state in the backups; one backup free
		for _, seg := range []int{0, 4, 5} {
			writeU64(c, seg*4096+256, 7)
			writeU64(c, seg*4096+512, 7)
		}
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		// Segment 0 owes two blocks to its pair, 4 the whole segment to the
		// free backup, 5 is one segment too many.
		if !c.DeferCoW(foreverPS) || !c.inc.cutSegs.Test(0) || !c.inc.cutSegs.Test(4) || c.inc.cutSegs.Test(5) {
			t.Fatal("fixture: want segments 0 and 4 deferred, 5 skipped")
		}
		return dev, c, bytes.Clone(c.Bytes())
	}
	recovered := func(dev *nvm.Device, want []byte, what string) {
		t.Helper()
		dev.CrashDropAll()
		c2, err := OpenContainer(dev, opts)
		if err != nil {
			t.Fatalf("%s: reopen: %v", what, err)
		}
		if !bytes.Equal(c2.Bytes(), want) {
			t.Fatalf("%s: recovered state differs from the committed epoch at offset %d", what, firstDiff(c2.Bytes(), want))
		}
	}

	// A store outside the quarantine, no backup free: segment 0's pair is
	// redundant and goes, and the replay drops segment 0.
	dev, c, want := fixture()
	writeU64(c, 5*4096+8, 55) // takes the free backup
	writeU64(c, 6*4096, 66)   // never committed: needs none
	b0 := c.mainToBackup[0]
	writeU64(c, 4*4096+8, 44) // staged; its counted backup is gone
	for c.StepCoW(1<<50) > 0 {
	}
	if c.mainToBackup[4] != b0 || c.mainToBackup[0] != region.NoPair {
		t.Fatalf("segment 4 paired with %d, segment 0 with %d: want 4 to have taken 0's redundant backup (%d)", c.mainToBackup[4], c.mainToBackup[0], b0)
	}
	if e := int(c.CommittedEpoch() % 2); c.meta.SegState(e, 0) != region.SSMain || c.meta.SegState(e, 4) != region.SSBackup {
		t.Fatal("want segment 0 dropped uncopied and segment 4 copied")
	}
	recovered(dev, want, "steal from an unreached segment")

	// The same, but the replay is one block into segment 0 when the stores
	// land: the quantum that finishes it must not hand its backup on.
	dev, c, want = fixture()
	c.StepCoW(1)
	if c.inc.rSeg != 0 {
		t.Fatal("fixture: want the replay inside segment 0")
	}
	writeU64(c, 5*4096+8, 55)
	writeU64(c, 4*4096+8, 44)
	for c.StepCoW(1<<50) > 0 {
	}
	if c.mainToBackup[0] != b0 {
		t.Fatalf("segment 0 lost its backup in the quantum that filled it")
	}
	e := int(c.CommittedEpoch() % 2)
	if c.meta.SegState(e, 0) != region.SSBackup || c.meta.SegState(e, 4) != region.SSBackup {
		t.Fatal("want segments 0 and 4 both copied")
	}
	// Segment 4 found its backup by moving a clean segment's state home.
	if c.mainToBackup[1] != region.NoPair && c.mainToBackup[2] != region.NoPair {
		t.Fatal("want segment 1 or 2 evacuated for segment 4")
	}
	writeU64(c, 0, 99) // segment 0 is writable: its checkpoint state is the backup's now
	recovered(dev, want, "steal beside a segment copied and not yet flipped")
}

// TestDeferredScopesLiveOutsideQuarantine: during a deferred replay a scope
// and a pre-flush do their work for stores outside the quarantine — an
// incremental cut in flight keeps them inert (TestWriteThroughInert) — and
// leave a store staged inside it alone: not flushed, not marked.
func TestDeferredScopesLiveOutsideQuarantine(t *testing.T) {
	dev, c := preCopyFixture(t, incOpts(ModeDefault))
	c.preLag = 0
	c.PreFlush(0)
	c.DeferCoW(foreverPS)
	flushed := dev.Stats().FlushedLines
	c.BeginWriteThrough()
	writeU64(c, 9*4096, 9)    // clean, never committed: outside the quarantine
	writeU64(c, 1*4096+8, 11) // quarantined: staged
	c.EndWriteThrough()
	writeU64(c, 10*4096, 10)
	writeU64(c, 2*4096+8, 12)
	c.PreFlush(1 << 40)
	if !c.pre.Test(9*16) || !c.pre.Test(10*16) || c.pre.Count() != 2 {
		t.Fatalf("marks %d; want exactly the two blocks stored outside the quarantine", c.pre.Count())
	}
	if got := dev.Stats().FlushedLines - flushed; got != 2 {
		t.Fatalf("%d lines flushed, want the two outside the quarantine", got)
	}
	auditWT(c)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	dev.CrashDropAll()
	c2, err := OpenContainer(dev, incOpts(ModeDefault))
	if err != nil {
		t.Fatal(err)
	}
	for off, want := range map[int]uint64{9 * 4096: 9, 1*4096 + 8: 11, 10 * 4096: 10, 2*4096 + 8: 12} {
		if got := readU64(c2, off); got != want {
			t.Fatalf("offset %d committed as %d, want %d", off, got, want)
		}
	}
}

// TestDeferredCoWKeepsRollbackWindow is the coordinated protocol's
// both-epochs-recoverable window with a deferral between the cuts. The replay
// overwrites the backups — the epoch before the last — which is legal once the
// last cut's barrier is behind every rank; from then on the rollback target
// is the last cut itself, and a checkpoint that finds the replay unfinished
// must finish it before its commit, or the backups it rolls back onto are
// half an epoch old. A power failure at every primitive of such a checkpoint
// — inside the drained replay, in the lift, in the flush, either side of the
// commit — must leave the last cut recoverable: as the committed epoch, or
// one RollbackOneEpoch behind the new one.
func TestDeferredCoWKeepsRollbackWindow(t *testing.T) {
	for _, checksums := range []bool{false, true} {
		opts := incOpts(ModeDefault)
		opts.Region.Checksums = checksums
		// One epoch into a deferred replay: some segments copied in gaps, one
		// mid-copy, one untouched, stores staged in all of them and plain
		// stores elsewhere.
		fixture := func() (*nvm.Device, *Container, []byte) {
			dev, c := preCopyFixture(t, opts)
			want := bytes.Clone(c.Bytes())
			c.DeferCoW(foreverPS)
			for _, seg := range []int{1, 2, 5, 7} {
				for i := 0; i < 4; i++ {
					writeU64(c, seg*4096+i*520, uint64(seg*1000+i))
				}
			}
			for i := 0; i < 8; i++ {
				c.StepCoW(1)
			}
			if c.inc == nil || c.inc.rSeg < 0 {
				t.Fatal("fixture: want the replay mid-segment")
			}
			return dev, c, want
		}
		refDev, refC, _ := fixture()
		epoch := refC.CommittedEpoch()
		p0 := refDev.PrimitiveCount()
		if err := refC.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		total := refDev.PrimitiveCount() - p0
		committed := bytes.Clone(refC.Bytes())
		for _, pol := range wtCrashPolicies {
			rolledBack := 0
			for k := int64(0); k <= total; k++ {
				dev, c, want := fixture()
				crashed := crashesWithin(dev, k, func() {
					if err := c.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				})
				if crashed != (k < total) {
					t.Fatalf("crash at checkpoint primitive %d of %d: fired=%v", k, total, crashed)
				}
				dev.CrashWith(pol.make(k))
				c2, err := OpenContainerDeferRecovery(dev, opts)
				if err != nil {
					t.Fatalf("checksums=%v %s: crash at %d: reopen: %v", checksums, pol.name, k, err)
				}
				switch c2.CommittedEpoch() {
				case epoch:
				case epoch + 1:
					// A peer crashed before its own commit: this rank goes back.
					if err := c2.RollbackOneEpoch(); err != nil {
						t.Fatalf("checksums=%v %s: crash at %d: rollback: %v", checksums, pol.name, k, err)
					}
					rolledBack++
				default:
					t.Fatalf("crash at %d: recovered to epoch %d", k, c2.CommittedEpoch())
				}
				if err := c2.Recover(); err != nil {
					t.Fatal(err)
				}
				if c2.CommittedEpoch() != epoch || !bytes.Equal(c2.Bytes(), want) {
					t.Fatalf("checksums=%v %s: crash at checkpoint primitive %d of %d: epoch %d (want %d), first difference at %d",
						checksums, pol.name, k, total, c2.CommittedEpoch(), epoch, firstDiff(c2.Bytes(), want))
				}
			}
			if rolledBack == 0 {
				t.Fatalf("%s: no crash point landed after the commit", pol.name)
			}
		}
		// And without the rollback the new epoch is what the checkpoint saw.
		refDev.CrashDropAll()
		c3, err := OpenContainer(refDev, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c3.Bytes(), committed) {
			t.Fatalf("checksums=%v: the finishing checkpoint committed something else than the working state, first difference at %d", checksums, firstDiff(c3.Bytes(), committed))
		}
	}
}
