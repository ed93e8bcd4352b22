// Package undolog implements the undo-log baseline of the paper's
// evaluation (§2.2.2, §5.1): static instrumentation creates a 256-byte undo
// record before the first modification of each granule per epoch, and every
// record append costs two store fences — one for the record, one for the log
// head — which is exactly the persistence overhead problem (P2) libcrpm's
// segment-level copy-on-write removes.
package undolog

import (
	"encoding/binary"
	"errors"
	"fmt"

	"libcrpm/internal/bitmap"
	"libcrpm/internal/ckpt"
	"libcrpm/internal/nvm"
	"libcrpm/internal/obs"
)

// RecordDataSize is the undo-entry payload size (256 B, §5.1).
const RecordDataSize = 256

// recordSize includes the 8-byte granule-index header, line-aligned.
const recordSize = 320

// Magic identifies a formatted undo-log container.
const Magic uint64 = 0x4352504d554e444f // "CRPMUNDO"

const metaSize = 4096

// ErrLogFull is thrown (as a panic, since the write hook cannot return an
// error) when one epoch modifies more granules than the log can hold.
var ErrLogFull = errors.New("undolog: undo log exhausted within one epoch")

// Backend is one undo-log-protected container.
type Backend struct {
	dev *nvm.Device
	n   int // granules

	workOff int
	logOff  int
	logCap  int

	logged *bitmap.Set // granules logged this epoch
	m      ckpt.Metrics
	rec    *obs.Recorder // nil = tracing disabled; kept off the OnWrite path
}

// SetTrace implements obs.Traceable: checkpoint and recovery phases emit
// spans into r. The per-record write hook stays uninstrumented.
func (b *Backend) SetTrace(r *obs.Recorder) { b.rec = r }

// New formats a fresh container on its own device. The log is sized for
// full-heap coverage, so it can never fill within an epoch.
func New(heapSize int) (*Backend, error) {
	b, err := layout(heapSize)
	if err != nil {
		return nil, err
	}
	b.dev = nvm.NewDevice(b.deviceSize())
	ckpt.FormatHeader(b.dev, Magic, b.n)
	b.dev.FlushRange(0, ckpt.HeaderSize)
	b.dev.SFence()
	b.m.MetadataBytes = ckpt.HeaderSize
	return b, nil
}

// Open attaches to an existing device after a crash and recovers: pending
// undo records are applied in reverse, rolling the working state back to the
// last committed epoch.
func Open(heapSize int, dev *nvm.Device) (*Backend, error) {
	b, err := layout(heapSize)
	if err != nil {
		return nil, err
	}
	if err := ckpt.CheckHeader(dev, "undolog", b.deviceSize(), Magic, "granule count", b.n); err != nil {
		return nil, err
	}
	b.dev = dev
	if err := b.Recover(); err != nil {
		return nil, err
	}
	return b, nil
}

func layout(heapSize int) (*Backend, error) {
	if heapSize <= 0 {
		return nil, errors.New("undolog: heap size must be positive")
	}
	n := (heapSize + RecordDataSize - 1) / RecordDataSize
	b := &Backend{n: n, logged: bitmap.New(n), logCap: n}
	b.workOff = metaSize
	b.logOff = metaSize + n*RecordDataSize
	return b, nil
}

func (b *Backend) deviceSize() int { return b.logOff + b.logCap*recordSize }

// commitHead unpacks the commit word: the committed epoch (high 32 bits)
// and the log head (low 32 bits) share one atomically-updatable word, so
// commit and truncation are a single 8-byte persist.
func (b *Backend) commitHead() (epoch, head uint32) {
	v := ckpt.CommitWord(b.dev)
	return uint32(v >> 32), uint32(v)
}

func (b *Backend) setCommitHead(epoch, head uint32) {
	ckpt.SetCommitWord(b.dev, uint64(epoch)<<32|uint64(head))
}

// Name implements ckpt.Backend.
func (b *Backend) Name() string { return "Undo-log" }

// Size implements ckpt.Backend.
func (b *Backend) Size() int { return b.n * RecordDataSize }

// Bytes implements ckpt.Backend.
func (b *Backend) Bytes() []byte {
	return b.dev.Working()[b.workOff : b.workOff+b.Size()]
}

// Device implements ckpt.Backend.
func (b *Backend) Device() *nvm.Device { return b.dev }

// Metrics implements ckpt.Backend.
func (b *Backend) Metrics() ckpt.Metrics {
	return b.m
}

// OnRead implements ckpt.Backend.
func (b *Backend) OnRead(off, n int) {
	b.dev.ChargeRead(n)
}

// OnWrite implements ckpt.Backend: append a persistent undo record before
// the first modification of each granule per epoch. Two sfences per record
// (§2.2.2).
func (b *Backend) OnWrite(off, n int) {
	if n <= 0 {
		return
	}
	if off < 0 || off+n > b.Size() {
		panic(fmt.Sprintf("undolog: write [%d,%d) outside heap", off, off+n))
	}
	clock := b.dev.Clock()
	prev := clock.SetCategory(nvm.CatTrace)
	first, last := off/RecordDataSize, (off+n-1)/RecordDataSize
	for g := first; g <= last; g++ {
		if !b.logged.Set(g) {
			continue
		}
		epoch, head := b.commitHead()
		if int(head) >= b.logCap {
			panic(ErrLogFull)
		}
		rec := b.logOff + int(head)*recordSize
		// Record: granule index header + the pre-modification data.
		var hdr [8]byte
		binary.LittleEndian.PutUint64(hdr[:], uint64(g))
		b.dev.NTStore(rec, hdr[:])
		src := b.workOff + g*RecordDataSize
		b.dev.ChargeNVMRead(RecordDataSize)
		b.dev.NTStore(rec+64, b.dev.Working()[src:src+RecordDataSize])
		b.dev.SFence() // fence 1: the undo entry
		b.setCommitHead(epoch, head+1)
		b.dev.SFence() // fence 2: the log metadata
		b.m.TraceEvents++
		b.m.CheckpointBytes += RecordDataSize
	}
	clock.SetCategory(prev)
}

// Write implements ckpt.Backend.
func (b *Backend) Write(off int, src []byte) {
	b.dev.Write(b.workOff+off, src)
}

// Checkpoint implements ckpt.Backend: flush the modified program state in
// place, then atomically truncate the log and advance the epoch.
func (b *Backend) Checkpoint() error {
	clock := b.dev.Clock()
	prev := clock.SetCategory(nvm.CatCheckpoint)
	defer clock.SetCategory(prev)

	b.rec.Begin("checkpoint")
	defer b.rec.End()
	b.rec.Begin("flush")
	for g := b.logged.NextSet(0); g >= 0; g = b.logged.NextSet(g + 1) {
		b.dev.FlushRange(b.workOff+g*RecordDataSize, RecordDataSize)
	}
	b.rec.End()
	b.rec.Begin("fence")
	b.dev.SFence()
	b.rec.End()
	b.rec.Begin("commit")
	epoch, _ := b.commitHead()
	// One atomic word flips the epoch and empties the log together.
	b.setCommitHead(epoch+1, 0)
	b.dev.SFence()
	b.rec.End()
	b.logged.ClearAll()
	b.m.Epochs++
	return nil
}

// Recover implements ckpt.Backend: apply pending undo records newest-first,
// restoring the working state of the last committed epoch, then truncate.
func (b *Backend) Recover() error {
	clock := b.dev.Clock()
	prev := clock.SetCategory(nvm.CatRecovery)
	defer clock.SetCategory(prev)

	b.rec.Begin("recovery")
	defer b.rec.End()
	epoch, head := b.commitHead()
	w := b.dev.Working()
	for i := int(head) - 1; i >= 0; i-- {
		rec := b.logOff + i*recordSize
		g := int(binary.LittleEndian.Uint64(w[rec:]))
		if g < 0 || g >= b.n {
			return fmt.Errorf("undolog: corrupt record %d references granule %d", i, g)
		}
		b.dev.ChargeNVMRead(RecordDataSize)
		b.dev.NTStore(b.workOff+g*RecordDataSize, w[rec+64:rec+64+RecordDataSize])
		b.m.RecoveryBytes += RecordDataSize
	}
	b.dev.SFence()
	b.setCommitHead(epoch, 0)
	b.dev.SFence()
	b.logged.ClearAll()
	return nil
}

var _ ckpt.Backend = (*Backend)(nil)
