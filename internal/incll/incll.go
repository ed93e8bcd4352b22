// Package incll implements fine-grain in-cache-line logging (InCLL), after
// Cohen et al., "Fine-Grain Checkpointing with In-Cache-Line Logging"
// (ASPLOS'19): every 256-byte line of the arena co-locates an undo slot and
// an epoch tag with the data it protects, so the first small write to a
// line per epoch persists its own undo entry with a single line flush —
// no block-granular copy-on-write, no separate log cache line.
// Checkpointing is an O(1) epoch-tag bump (two fences, one 8-byte persist)
// because every write already left the arena durably undoable; recovery
// walks the tags and rolls back entries from uncommitted epochs.
//
// Writes that span lines or exceed the inline slot overflow to a per-epoch
// side log holding full pre-images, checksummed, with two ping-pong halves
// keyed by epoch parity so the previous epoch's entries survive until the
// next epoch's first overflow — preserving the one-epoch rollback window
// coordinated (mpi) recovery needs.
//
// The economics are the inverse of libcrpm's differential checkpoint:
// InCLL pays per write (a line flush, plus a fence on each line's first
// touch per epoch) and nothing at checkpoint time, while the differential
// scheme pays almost nothing per write and a dirty-block copy sweep per
// checkpoint. The harness `crossover` figure maps where each wins.
package incll

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"

	"libcrpm/internal/bitmap"
	"libcrpm/internal/ckpt"
	"libcrpm/internal/nvm"
	"libcrpm/internal/obs"
)

const (
	// LineSpan is one InCLL line: a 256-byte media chunk holding the
	// protected data and its co-located undo metadata.
	LineSpan = nvm.MediaGranularity
	// DataPerLine is the application-visible payload of each InCLL line;
	// the remaining 64 bytes are the meta cache line.
	DataPerLine = LineSpan - nvm.LineSize
	// SlotSize is the inline undo capacity: the meta line holds an 8-byte
	// epoch tag, SlotSize pre-image bytes, and 8 spare bytes.
	SlotSize = 48
	// RecordSize is one side-log record: a 64-byte header (line index,
	// epoch, checksum) plus the full DataPerLine pre-image.
	RecordSize = 256
)

// Magic identifies a formatted InCLL container ("CRPMINCL").
const Magic uint64 = 0x4352504d494e434c

const (
	offMagic     = 0
	offHeapSize  = 8
	offCommitted = 16
	// offHalf0/offHalf1 each pack a side-log half's owner epoch (high 32
	// bits) and live record count (low 32 bits) into one atomically
	// persistable word; they live on separate cache lines so appending to
	// one half never re-flushes the other's head.
	offHalf0 = 64
	offHalf1 = 128
	metaSize = 4096
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// ErrLogFull is thrown (as a panic, since the write hook cannot return an
// error) if a side-log half overflows within one epoch. The halves are
// sized for one record per line per epoch, so this indicates a bug.
var ErrLogFull = errors.New("incll: side log exhausted within one epoch")

// ErrNoPreviousEpoch reports a rollback past the first commit.
var ErrNoPreviousEpoch = errors.New("incll: no previous epoch to roll back to")

// ErrCorruptLog reports a live side-log record failing its checksum: the
// pre-image needed to roll the crashed epoch back is damaged, so recovery
// refuses rather than installing a wrong state.
var ErrCorruptLog = errors.New("incll: live side-log record fails its checksum")

// Backend is one InCLL-protected container.
type Backend struct {
	dev      *nvm.Device
	heapSize int
	n        int // InCLL lines
	linesOff int
	sideOff  int // half 0; half 1 follows at sideOff + sideCap*RecordSize
	sideCap  int // records per half

	// mirror is the contiguous application view: device data portions are
	// interleaved with meta lines, so Bytes() cannot alias the device. It
	// stands in for the CPU's cached view; every mutation goes through
	// Write, which keeps both in sync. It is the device's DRAM
	// (nvm.Device.DRAM), unmapped when the device closes.
	mirror []byte

	committed   uint64      // volatile cache of the committed-epoch word
	sideCovered *bitmap.Set // lines with a full side pre-image this epoch
	sideEpoch   uint64      // epoch sideCovered and logged refer to
	logged      int         // lines logged this epoch, inline or side, each once

	m           ckpt.Metrics
	inlineRecs  int64
	sideRecs    int64
	coveredHits int64
	rec         *obs.Recorder // nil = tracing disabled
}

// SetTrace implements obs.Traceable: checkpoint and recovery phases emit
// spans into r. The per-write hook stays uninstrumented.
func (b *Backend) SetTrace(r *obs.Recorder) { b.rec = r }

// New formats a fresh container on its own device.
func New(heapSize int) (*Backend, error) {
	size, err := DeviceSize(heapSize)
	if err != nil {
		return nil, err
	}
	return Format(heapSize, nvm.NewDevice(size))
}

// DeviceSize reports the device footprint an InCLL container over heapSize
// heap bytes occupies: header, tagged lines, and both side-log halves.
func DeviceSize(heapSize int) (int, error) {
	b, err := layout(heapSize)
	if err != nil {
		return 0, err
	}
	return b.deviceSize(), nil
}

// Format formats a fresh container on a caller-provided device of at least
// DeviceSize(heapSize) bytes — for callers that must own the device before
// any primitive runs on it (e.g. to arm crash injection).
func Format(heapSize int, dev *nvm.Device) (*Backend, error) {
	b, err := newBackend(heapSize, dev)
	if err != nil {
		return nil, err
	}
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], Magic)
	b.dev.Store(offMagic, b8[:])
	binary.LittleEndian.PutUint64(b8[:], uint64(heapSize))
	b.dev.Store(offHeapSize, b8[:])
	binary.LittleEndian.PutUint64(b8[:], 0)
	b.dev.Store(offCommitted, b8[:])
	b.dev.FlushRange(0, 24)
	b.dev.SFence()
	b.m.MetadataBytes = int64(metaSize + b.n*nvm.LineSize)
	return b, nil
}

// Open attaches to an existing device after a crash and recovers.
func Open(heapSize int, dev *nvm.Device) (*Backend, error) {
	b, err := OpenDeferRecovery(heapSize, dev)
	if err != nil {
		return nil, err
	}
	if err := b.Recover(); err != nil {
		return nil, err
	}
	return b, nil
}

// OpenDeferRecovery attaches without rolling uncommitted epochs back, for
// coordinated (mpi) recovery: the caller inspects CommittedEpoch, possibly
// calls RollbackOneEpoch, then must call Recover before using the arena.
func OpenDeferRecovery(heapSize int, dev *nvm.Device) (*Backend, error) {
	b, err := newBackend(heapSize, dev)
	if err != nil {
		return nil, err
	}
	w := dev.Working()
	if got := binary.LittleEndian.Uint64(w[offMagic:]); got != Magic {
		return nil, fmt.Errorf("incll: bad magic %#x", got)
	}
	if got := int(binary.LittleEndian.Uint64(w[offHeapSize:])); got != heapSize {
		return nil, fmt.Errorf("incll: heap size mismatch: %d vs %d", got, heapSize)
	}
	b.committed = binary.LittleEndian.Uint64(w[offCommitted:])
	b.m.MetadataBytes = int64(metaSize + b.n*nvm.LineSize)
	return b, nil
}

// layout is the geometry of a heapSize container, without the DRAM state
// (newBackend adds it): sizing a device must not allocate a heap-sized
// mirror.
func layout(heapSize int) (*Backend, error) {
	if heapSize <= 0 {
		return nil, errors.New("incll: heap size must be positive")
	}
	n := (heapSize + DataPerLine - 1) / DataPerLine
	b := &Backend{
		heapSize: heapSize,
		n:        n,
		linesOff: metaSize,
		sideOff:  metaSize + n*LineSpan,
		sideCap:  n,
	}
	return b, nil
}

// newBackend is layout on dev plus the mirror, taken from dev's DRAM, and
// the side-log bookkeeping a backend works with.
func newBackend(heapSize int, dev *nvm.Device) (*Backend, error) {
	b, err := layout(heapSize)
	if err != nil {
		return nil, err
	}
	if dev.Size() < b.deviceSize() {
		return nil, errors.New("incll: device too small")
	}
	b.dev = dev
	b.mirror = dev.DRAM(heapSize)
	b.sideCovered = bitmap.New(b.n)
	return b, nil
}

func (b *Backend) deviceSize() int { return b.sideOff + 2*b.sideCap*RecordSize }

// lineBase returns the device offset of line l's data portion; the meta
// cache line (epoch tag + undo slot) is the same 256-byte chunk's tail.
func (b *Backend) lineBase(l int) int { return b.linesOff + l*LineSpan }
func (b *Backend) metaOff(l int) int  { return b.lineBase(l) + DataPerLine }

func (b *Backend) halfOff(h int) int { return b.sideOff + h*b.sideCap*RecordSize }

func (b *Backend) halfWordOff(h int) int {
	if h == 0 {
		return offHalf0
	}
	return offHalf1
}

func (b *Backend) halfWord(h int) (owner, head uint32) {
	v := binary.LittleEndian.Uint64(b.dev.Working()[b.halfWordOff(h):])
	return uint32(v >> 32), uint32(v)
}

func (b *Backend) setHalfWord(h int, owner, head uint32) {
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], uint64(owner)<<32|uint64(head))
	off := b.halfWordOff(h)
	b.dev.Store(off, b8[:])
	b.dev.FlushRange(off, 8)
}

func (b *Backend) setCommitted(e uint64) {
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], e)
	b.dev.Store(offCommitted, b8[:])
	b.dev.FlushRange(offCommitted, 8)
}

// packTag encodes an inline entry: epoch (high 32 bits), data-portion
// offset, length. A zero word means "no entry".
func packTag(epoch uint32, off, n int) uint64 {
	return uint64(epoch)<<32 | uint64(uint16(off))<<16 | uint64(uint16(n))
}

func unpackTag(tag uint64) (epoch uint32, off, n int) {
	return uint32(tag >> 32), int(uint16(tag >> 16)), int(uint16(tag))
}

// tag decodes line l's inline entry as the working image holds it.
func (b *Backend) tag(l int) (epoch uint32, off, n int) {
	return unpackTag(binary.LittleEndian.Uint64(b.dev.Working()[b.metaOff(l):]))
}

func recordSum(line, epoch uint64, data []byte) uint64 {
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[:8], line)
	binary.LittleEndian.PutUint64(hdr[8:], epoch)
	return crc64.Update(crc64.Checksum(hdr[:], crcTable), crcTable, data)
}

// Name implements ckpt.Backend.
func (b *Backend) Name() string { return "InCLL" }

// Size implements ckpt.Backend.
func (b *Backend) Size() int { return b.heapSize }

// Bytes implements ckpt.Backend: the contiguous DRAM mirror of the
// interleaved on-device data portions.
func (b *Backend) Bytes() []byte { return b.mirror }

// Device implements ckpt.Backend.
func (b *Backend) Device() *nvm.Device { return b.dev }

// Metrics implements ckpt.Backend.
func (b *Backend) Metrics() ckpt.Metrics {
	m := b.m
	m.FlushedLines = b.dev.Stats().FlushedLines
	return m
}

// InlineRecords returns the number of inline undo entries written.
func (b *Backend) InlineRecords() int64 { return b.inlineRecs }

// SideRecords returns the number of side-log records appended.
func (b *Backend) SideRecords() int64 { return b.sideRecs }

// CommittedEpoch returns the last committed epoch (0 before any commit).
func (b *Backend) CommittedEpoch() uint64 { return b.committed }

// NextWriteEpoch returns the epoch new writes belong to.
func (b *Backend) NextWriteEpoch() uint64 { return b.committed + 1 }

// BeginWriteThrough and EndWriteThrough are pass-throughs: every store is
// already flushed line by line as it is logged, so there is no checkpoint
// flush to move ahead of the cut.
func (b *Backend) BeginWriteThrough() {}

// EndWriteThrough closes the (inert) scope.
func (b *Backend) EndWriteThrough() {}

// PreFlush is a no-op for the same reason: nothing waits for the checkpoint
// to be flushed.
func (b *Backend) PreFlush(budgetPS int64) {}

// DeferCoW and StepCoW are no-ops: the undo state is logged inline per
// store, there is no per-epoch copy-on-write to move anywhere.
func (b *Backend) DeferCoW(idlePS int64) bool { return false }

// StepCoW reports nothing pending.
func (b *Backend) StepCoW(gapPS int64) int { return 0 }

// DirtyEstimateBytes estimates the arena bytes made dirty this epoch —
// for InCLL every logged line is already durably undoable, so this is the
// touched-line footprint, used only by byte-threshold cut policies: each
// line counts once, at its first log of the epoch, inline or side.
func (b *Backend) DirtyEstimateBytes() uint64 {
	if b.sideEpoch != b.committed+1 {
		return 0
	}
	return uint64(b.logged) * LineSpan
}

// OnRead implements ckpt.Backend (the arena is NVM-resident).
func (b *Backend) OnRead(off, n int) {
	b.dev.ChargeRead(n)
}

// OnWrite implements ckpt.Backend: ensure [off, off+n) is durably undoable
// before the caller's store. A small single-line write logs its pre-image
// into the line's own meta cache line (one flush + one fence on first
// touch, free when the range is already covered this epoch); anything
// spanning lines or exceeding the inline slot side-logs a full pre-image
// of each touched line, once per line per epoch.
func (b *Backend) OnWrite(off, n int) {
	if n <= 0 {
		return
	}
	if off < 0 || off+n > b.heapSize {
		panic(fmt.Sprintf("incll: write [%d,%d) outside heap", off, off+n))
	}
	clock := b.dev.Clock()
	prev := clock.SetCategory(nvm.CatTrace)
	if b.sideEpoch != b.committed+1 {
		b.sideCovered.ClearAll()
		b.sideEpoch, b.logged = b.committed+1, 0
	}
	cur := uint32(b.committed + 1)
	first, last := off/DataPerLine, (off+n-1)/DataPerLine
	if first == last && n <= SlotSize {
		l := first
		if b.sideCovered.Test(l) {
			b.coveredHits++
			clock.SetCategory(prev)
			return
		}
		epoch, toff, tlen := b.tag(l)
		lo := off - l*DataPerLine
		if epoch == cur && tlen > 0 {
			if toff <= lo && lo+n <= toff+tlen {
				// The inline entry already guards this range this epoch.
				b.coveredHits++
				clock.SetCategory(prev)
				return
			}
			// A second disjoint range in the same line: the single inline
			// slot is taken, so capture the full line in the side log. The
			// inline entry stays authoritative for its own range (recovery
			// applies it after the side record).
			b.sideLog(l)
		} else {
			b.inlineLog(l, lo, n, cur)
		}
		clock.SetCategory(prev)
		return
	}
	for l := first; l <= last; l++ {
		b.sideLog(l)
	}
	clock.SetCategory(prev)
}

// inlineLog is the InCLL fast path: tag + pre-image share the line's meta
// cache line, so one CLWB persists both, and the 64-byte line persists (or
// vanishes) atomically under the crash model. The line is atomic; the two
// stores into it are not — a crash can fall between them and the image keep
// the line. So the pre-image goes in first and the tag last: inlineLog only
// ever runs over a tag of a stale epoch (a current one takes the covered-hit
// or the sideLog branch), which recovery ignores whatever the slot holds, and
// the tag that makes the entry live lands on a slot already complete. The
// fence before the guarded store is mandatory here: the simulator resolves
// each cache line's fate independently at a crash, so an unfenced undo could
// vanish while the new data persisted.
func (b *Backend) inlineLog(l, lo, n int, cur uint32) {
	b.dev.ChargeNVMLoad() // the protected line's pre-image (cache-resident in real InCLL)
	mo := b.metaOff(l)
	old := b.mirror[l*DataPerLine+lo : l*DataPerLine+lo+n]
	b.dev.Write(mo+8, old)
	var t [8]byte
	binary.LittleEndian.PutUint64(t[:], packTag(cur, lo, n))
	b.dev.Store(mo, t[:])
	b.dev.CLWB(mo)
	b.dev.SFence()
	b.logged++
	b.inlineRecs++
	b.m.TraceEvents++
	b.m.CheckpointBytes += int64(n)
}

// sideLog captures a full pre-image of line l in the current epoch's
// side-log half, once per line per epoch. Undolog-style: one fence for the
// record, one for the half's head word.
func (b *Backend) sideLog(l int) {
	if !b.sideCovered.Set(l) {
		b.coveredHits++
		return
	}
	e := b.committed + 1
	if epoch, _, tlen := b.tag(l); epoch != uint32(e) || tlen == 0 {
		b.logged++ // no inline entry of this epoch counted the line already
	}
	h := int(e & 1)
	owner, head := b.halfWord(h)
	if owner != uint32(e) {
		// First overflow of this epoch: recycle the half (its records
		// belong to epoch e-2, long committed and past the rollback
		// window).
		head = 0
	}
	if int(head) >= b.sideCap {
		panic(ErrLogFull)
	}
	recOff := b.halfOff(h) + int(head)*RecordSize
	base := b.lineBase(l)
	var buf [RecordSize]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(l))
	binary.LittleEndian.PutUint64(buf[8:], e)
	b.dev.ChargeNVMRead(DataPerLine)
	copy(buf[64:], b.dev.Working()[base:base+DataPerLine])
	b.dev.ChargeHash(DataPerLine)
	binary.LittleEndian.PutUint64(buf[16:], recordSum(uint64(l), e, buf[64:]))
	b.dev.NTStore(recOff, buf[:])
	b.dev.SFence() // fence 1: the record
	b.setHalfWord(h, uint32(e), head+1)
	b.dev.SFence() // fence 2: the half's head
	b.sideRecs++
	b.m.TraceEvents++
	b.m.CheckpointBytes += RecordSize
}

// Write implements ckpt.Backend: store through to the interleaved device
// lines (flushing each eagerly, unfenced until commit) and keep the
// contiguous mirror in sync.
func (b *Backend) Write(off int, src []byte) {
	copy(b.mirror[off:], src)
	clock := b.dev.Clock()
	for o, s := off, src; len(s) > 0; {
		l, lo := o/DataPerLine, o%DataPerLine
		n := DataPerLine - lo
		if n > len(s) {
			n = len(s)
		}
		dst := b.lineBase(l) + lo
		b.dev.Write(dst, s[:n])
		// The eager flush is the persistence protocol's cost, not the
		// application store's: it keeps Checkpoint O(1) (one drain fence,
		// no dirty-line walk).
		prev := clock.SetCategory(nvm.CatTrace)
		b.dev.FlushRange(dst, n)
		clock.SetCategory(prev)
		o, s = o+n, s[n:]
	}
}

// Checkpoint implements ckpt.Backend: O(1) regardless of the epoch's
// write set. One fence drains the eager data flushes, then an 8-byte
// committed-word bump retires every live undo entry at once.
func (b *Backend) Checkpoint() error {
	clock := b.dev.Clock()
	prev := clock.SetCategory(nvm.CatCheckpoint)
	defer clock.SetCategory(prev)

	b.rec.Begin("checkpoint")
	defer b.rec.End()
	b.rec.Begin("fence")
	b.dev.SFence() // drain the epoch's eagerly-flushed data lines
	b.rec.End()
	b.rec.Begin("commit")
	b.setCommitted(b.committed + 1)
	b.dev.SFence()
	b.rec.End()
	b.committed++
	b.m.Epochs++
	return nil
}

// RollbackOneEpoch rewinds the committed word by one, re-arming the last
// epoch's undo entries (tags and side half both read as uncommitted
// again); the caller must Recover() next. Valid only inside the
// coordinated-recovery window, before any next-epoch write overwrote an
// entry.
func (b *Backend) RollbackOneEpoch() error {
	if b.committed == 0 {
		return ErrNoPreviousEpoch
	}
	clock := b.dev.Clock()
	prev := clock.SetCategory(nvm.CatRecovery)
	defer clock.SetCategory(prev)
	b.setCommitted(b.committed - 1)
	b.dev.SFence()
	b.committed--
	return nil
}

// Recover implements ckpt.Backend: roll every entry of uncommitted epochs
// back. Side records (full pre-images, applied newest-first) go first;
// inline entries go last, because an inline entry always holds the
// pre-epoch image of its exact range, while a line's side record may have
// been captured after inline-guarded bytes were already modified.
// Restores are idempotent, so a crash during recovery just reruns it.
func (b *Backend) Recover() error {
	clock := b.dev.Clock()
	prev := clock.SetCategory(nvm.CatRecovery)
	defer clock.SetCategory(prev)

	b.rec.Begin("recovery")
	defer b.rec.End()
	w := b.dev.Working()
	b.committed = binary.LittleEndian.Uint64(w[offCommitted:])
	cur := uint32(b.committed + 1)
	for h := 0; h < 2; h++ {
		owner, head := b.halfWord(h)
		if owner != cur || head == 0 {
			continue
		}
		if int(head) > b.sideCap {
			return fmt.Errorf("incll: half %d head %d exceeds capacity %d: %w", h, head, b.sideCap, ErrCorruptLog)
		}
		for i := int(head) - 1; i >= 0; i-- {
			recOff := b.halfOff(h) + i*RecordSize
			b.dev.ChargeNVMRead(RecordSize)
			line := binary.LittleEndian.Uint64(w[recOff:])
			epoch := binary.LittleEndian.Uint64(w[recOff+8:])
			sum := binary.LittleEndian.Uint64(w[recOff+16:])
			data := w[recOff+64 : recOff+64+DataPerLine]
			b.dev.ChargeHash(DataPerLine)
			if line >= uint64(b.n) || uint32(epoch) != cur || sum != recordSum(line, epoch, data) {
				return fmt.Errorf("incll: half %d record %d (line %d, epoch %d): %w", h, i, line, epoch, ErrCorruptLog)
			}
			b.dev.NTStore(b.lineBase(int(line)), data)
			b.m.RecoveryBytes += DataPerLine
		}
	}
	// The inline walk reads every meta line (the tag scan is the O(heap)
	// part of InCLL recovery).
	b.dev.ChargeNVMRead(b.n * nvm.LineSize)
	for l := 0; l < b.n; l++ {
		mo := b.metaOff(l)
		epoch, toff, tlen := b.tag(l)
		if epoch != cur || tlen == 0 {
			continue
		}
		if tlen > SlotSize || toff+tlen > DataPerLine {
			return fmt.Errorf("incll: line %d inline tag [%d,%d) malformed: %w", l, toff, toff+tlen, ErrCorruptLog)
		}
		b.dev.NTStore(b.lineBase(l)+toff, w[mo+8:mo+8+tlen])
		b.m.RecoveryBytes += int64(tlen)
	}
	b.dev.SFence()
	// Retire the crashed epoch's side half: its records were applied and
	// must not be applied again after further writes in the (repeated)
	// epoch. The inline entries stay — recovery just restored each one's
	// range to its pre-image, so they read as valid first-touch entries
	// when the epoch is retried.
	for h := 0; h < 2; h++ {
		if owner, head := b.halfWord(h); owner == cur && head != 0 {
			b.setHalfWord(h, 0, 0)
		}
	}
	b.dev.SFence()
	// Rebuild the contiguous mirror from the interleaved device image.
	for l := 0; l < b.n; l++ {
		lo := l * DataPerLine
		end := lo + DataPerLine
		if end > b.heapSize {
			end = b.heapSize
		}
		base := b.lineBase(l)
		copy(b.mirror[lo:end], w[base:base+(end-lo)])
	}
	b.sideCovered.ClearAll()
	b.sideEpoch, b.logged = b.committed+1, 0
	return nil
}

var _ ckpt.Backend = (*Backend)(nil)
