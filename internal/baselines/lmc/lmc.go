// Package lmc implements the LMC (lightweight memory checkpointing)
// baseline of the paper's evaluation (§2.2.2, §5.1), transformed for power-
// failure tolerance: before the first modification of each 256-byte granule
// per epoch, the instrumented code writes a copy-on-write record into a
// per-granule shadow slot tagged with the epoch number. Like the undo log it
// pays two fences per record, but it has no log-head metadata to maintain —
// epoch tags invalidate stale records for free — so it runs slightly faster,
// matching the paper's relative ordering of the two systems.
package lmc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"libcrpm/internal/bitmap"
	"libcrpm/internal/ckpt"
	"libcrpm/internal/nvm"
)

// GranuleSize is the copy-on-write record payload size (256 B, §5.1).
const GranuleSize = 256

// slotSize is one shadow slot: 8-byte epoch tag (line-padded) + payload.
const slotSize = 64 + GranuleSize

// Magic identifies a formatted LMC container.
const Magic uint64 = 0x4352504d4c4d4343 // "CRPMLMCC"

const (
	offMagic     = 0
	offNGranules = 8
	offCommitted = 16
	metaSize     = 4096
)

// Backend is one LMC-protected container.
type Backend struct {
	dev *nvm.Device
	n   int

	workOff   int
	shadowOff int

	logged *bitmap.Set
	m      ckpt.Metrics
}

// New formats a fresh container on its own device.
func New(heapSize int) (*Backend, error) {
	b, err := layout(heapSize)
	if err != nil {
		return nil, err
	}
	b.dev = nvm.NewDevice(b.deviceSize())
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], Magic)
	b.dev.Store(offMagic, b8[:])
	binary.LittleEndian.PutUint64(b8[:], uint64(b.n))
	b.dev.Store(offNGranules, b8[:])
	binary.LittleEndian.PutUint64(b8[:], 0)
	b.dev.Store(offCommitted, b8[:])
	b.dev.FlushRange(0, 24)
	b.dev.SFence()
	b.m.MetadataBytes = 24
	return b, nil
}

// Open attaches after a crash and recovers: shadow slots tagged with the
// crashed (uncommitted) epoch are applied back over the working state.
func Open(heapSize int, dev *nvm.Device) (*Backend, error) {
	b, err := layout(heapSize)
	if err != nil {
		return nil, err
	}
	if dev.Size() < b.deviceSize() {
		return nil, errors.New("lmc: device too small")
	}
	b.dev = dev
	w := dev.Working()
	if got := binary.LittleEndian.Uint64(w[offMagic:]); got != Magic {
		return nil, fmt.Errorf("lmc: bad magic %#x", got)
	}
	if got := int(binary.LittleEndian.Uint64(w[offNGranules:])); got != b.n {
		return nil, fmt.Errorf("lmc: granule count mismatch: %d vs %d", got, b.n)
	}
	if err := b.Recover(); err != nil {
		return nil, err
	}
	return b, nil
}

func layout(heapSize int) (*Backend, error) {
	if heapSize <= 0 {
		return nil, errors.New("lmc: heap size must be positive")
	}
	n := (heapSize + GranuleSize - 1) / GranuleSize
	b := &Backend{n: n, logged: bitmap.New(n)}
	b.workOff = metaSize
	b.shadowOff = metaSize + n*GranuleSize
	return b, nil
}

func (b *Backend) deviceSize() int { return b.shadowOff + b.n*slotSize }

func (b *Backend) committed() uint64 {
	return binary.LittleEndian.Uint64(b.dev.Working()[offCommitted:])
}

func (b *Backend) slotEpoch(g int) uint64 {
	return binary.LittleEndian.Uint64(b.dev.Working()[b.shadowOff+g*slotSize:])
}

// Name implements ckpt.Backend.
func (b *Backend) Name() string { return "LMC" }

// Size implements ckpt.Backend.
func (b *Backend) Size() int { return b.n * GranuleSize }

// Bytes implements ckpt.Backend.
func (b *Backend) Bytes() []byte {
	return b.dev.Working()[b.workOff : b.workOff+b.Size()]
}

// Device implements ckpt.Backend.
func (b *Backend) Device() *nvm.Device { return b.dev }

// Metrics implements ckpt.Backend.
func (b *Backend) Metrics() ckpt.Metrics {
	m := b.m
	m.FlushedLines = b.dev.Stats().FlushedLines
	return m
}

// OnRead implements ckpt.Backend.
func (b *Backend) OnRead(off, n int) {
	b.dev.ChargeRead(n)
}

// OnWrite implements ckpt.Backend: persist a copy-on-write record into the
// granule's shadow slot before its first modification in the epoch. The
// payload is fenced before the epoch tag, so a half-written record is never
// mistaken for a valid one.
func (b *Backend) OnWrite(off, n int) {
	if n <= 0 {
		return
	}
	if off < 0 || off+n > b.Size() {
		panic(fmt.Sprintf("lmc: write [%d,%d) outside heap", off, off+n))
	}
	clock := b.dev.Clock()
	prev := clock.SetCategory(nvm.CatTrace)
	cur := b.committed() + 1
	first, last := off/GranuleSize, (off+n-1)/GranuleSize
	for g := first; g <= last; g++ {
		if !b.logged.Set(g) {
			continue
		}
		slot := b.shadowOff + g*slotSize
		src := b.workOff + g*GranuleSize
		b.dev.ChargeNVMRead(GranuleSize)
		b.dev.NTStore(slot+64, b.dev.Working()[src:src+GranuleSize])
		b.dev.SFence() // fence 1: the record payload
		var tag [8]byte
		binary.LittleEndian.PutUint64(tag[:], cur)
		b.dev.NTStore(slot, tag[:])
		b.dev.SFence() // fence 2: the record metadata
		b.m.TraceEvents++
		b.m.CheckpointBytes += GranuleSize
	}
	clock.SetCategory(prev)
}

// Write implements ckpt.Backend.
func (b *Backend) Write(off int, src []byte) {
	b.dev.Write(b.workOff+off, src)
}

// Checkpoint implements ckpt.Backend: flush modified granules in place and
// advance the epoch; all current records become stale by tag comparison —
// no truncation writes at all.
func (b *Backend) Checkpoint() error {
	clock := b.dev.Clock()
	prev := clock.SetCategory(nvm.CatCheckpoint)
	defer clock.SetCategory(prev)

	for g := b.logged.NextSet(0); g >= 0; g = b.logged.NextSet(g + 1) {
		b.dev.FlushRange(b.workOff+g*GranuleSize, GranuleSize)
	}
	b.dev.SFence()
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], b.committed()+1)
	b.dev.Store(offCommitted, b8[:])
	b.dev.FlushRange(offCommitted, 8)
	b.dev.SFence()
	b.logged.ClearAll()
	b.m.Epochs++
	return nil
}

// Recover implements ckpt.Backend: restore every granule whose shadow slot
// is tagged with the crashed epoch.
func (b *Backend) Recover() error {
	clock := b.dev.Clock()
	prev := clock.SetCategory(nvm.CatRecovery)
	defer clock.SetCategory(prev)

	crashed := b.committed() + 1
	w := b.dev.Working()
	for g := 0; g < b.n; g++ {
		if b.slotEpoch(g) != crashed {
			continue
		}
		slot := b.shadowOff + g*slotSize
		b.dev.ChargeNVMRead(GranuleSize)
		b.dev.NTStore(b.workOff+g*GranuleSize, w[slot+64:slot+64+GranuleSize])
		b.m.RecoveryBytes += GranuleSize
	}
	b.dev.SFence()
	b.logged.ClearAll()
	return nil
}

var _ ckpt.Backend = (*Backend)(nil)
