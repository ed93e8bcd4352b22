// Package pagecow implements page-granularity incremental checkpointing,
// the engine behind the mprotect and soft-dirty-bit baselines of the paper
// (§2.2.1, §5.1). The working state lives in NVM; page modifications are
// detected through a simulated page-protection mechanism; at each checkpoint
// the dirty pages are replicated into one of two double-buffered checkpoint
// areas and the commit flips atomically.
//
// The two baselines differ only in how tracing is charged and how precisely
// pages are marked:
//
//   - mprotect: the first write to each page per epoch takes a ~2 µs
//     protection fault; pages are marked exactly. Re-protecting the address
//     space costs a bulk charge at every checkpoint.
//   - soft-dirty bit: writes are traced for free by the kernel, but reading
//     and clearing the soft-dirty bits costs a page-table walk at every
//     checkpoint, and marking is coarse — a write dirties a whole group of
//     neighbouring pages, which is the collateral marking the paper blames
//     for soft-dirty's large checkpoints under read-heavy workloads.
package pagecow

import (
	"encoding/binary"
	"errors"
	"fmt"

	"libcrpm/internal/bitmap"
	"libcrpm/internal/ckpt"
	"libcrpm/internal/nvm"
	"libcrpm/internal/obs"
)

// PageSize is the tracking granularity (4 KB, the paper's page size).
const PageSize = 4096

// Magic identifies a formatted page-granularity container.
const Magic uint64 = 0x4352504d50434f57 // "CRPMPCOW"

// Config selects a baseline flavour.
type Config struct {
	// Name is the system name reported in experiment output.
	Name string
	// HeapSize is the application-visible capacity (rounded up to pages).
	HeapSize int
	// FaultPerFirstWrite charges a page fault on the first write to each
	// page per epoch (mprotect) instead of tracing for free (soft-dirty).
	FaultPerFirstWrite bool
	// MarkGranularityPages is how many contiguous pages one write marks
	// dirty (1 for mprotect; >1 models soft-dirty collateral marking).
	MarkGranularityPages int
	// EpochScanPSPerPage is charged per heap page at every checkpoint: the
	// mprotect() re-protection or the soft-dirty page-table walk and clear.
	EpochScanPSPerPage int64
}

// Metadata layout.
const (
	offMagic     = 0
	offNPages    = 8
	offCommitted = 16
	offStates    = 24 // two page-state arrays follow (1 byte per page each)
)

// Page states in the two state arrays (same trick as the core layout: the
// array indexed by committed%2 is active).
const (
	psInitial = 0
	psCopyA   = 1
	psCopyB   = 2
)

// Backend is one page-granularity incremental-checkpointing container.
type Backend struct {
	cfg   Config
	dev   *nvm.Device
	n     int // pages
	metaN int // metadata bytes (aligned)

	workOff int
	copyOff [2]int

	dirty *bitmap.Set // pages written this epoch
	m     ckpt.Metrics
	rec   *obs.Recorder // nil = tracing disabled; kept off the OnWrite path
}

// SetTrace implements obs.Traceable: checkpoint and recovery phases emit
// spans into r. The page-fault trace path stays uninstrumented.
func (b *Backend) SetTrace(r *obs.Recorder) { b.rec = r }

// New formats a fresh container on its own device.
func New(cfg Config) (*Backend, error) {
	if cfg.HeapSize <= 0 {
		return nil, errors.New("pagecow: HeapSize must be positive")
	}
	if cfg.MarkGranularityPages < 1 {
		cfg.MarkGranularityPages = 1
	}
	b := layout(cfg)
	b.dev = nvm.NewDevice(b.deviceSize())
	b.format()
	return b, nil
}

// Open attaches to an existing device after a crash and recovers.
func Open(cfg Config, dev *nvm.Device) (*Backend, error) {
	if cfg.MarkGranularityPages < 1 {
		cfg.MarkGranularityPages = 1
	}
	b := layout(cfg)
	if dev.Size() < b.deviceSize() {
		return nil, errors.New("pagecow: device too small")
	}
	b.dev = dev
	w := dev.Working()
	if got := binary.LittleEndian.Uint64(w[offMagic:]); got != Magic {
		return nil, fmt.Errorf("pagecow: bad magic %#x", got)
	}
	if got := int(binary.LittleEndian.Uint64(w[offNPages:])); got != b.n {
		return nil, fmt.Errorf("pagecow: page count mismatch: %d vs %d", got, b.n)
	}
	if err := b.Recover(); err != nil {
		return nil, err
	}
	return b, nil
}

func layout(cfg Config) *Backend {
	n := (cfg.HeapSize + PageSize - 1) / PageSize
	meta := offStates + 2*n
	meta = (meta + PageSize - 1) / PageSize * PageSize
	b := &Backend{
		cfg:   cfg,
		n:     n,
		metaN: meta,
		dirty: bitmap.New(n),
	}
	b.workOff = meta
	b.copyOff[0] = meta + n*PageSize
	b.copyOff[1] = meta + 2*n*PageSize
	return b
}

func (b *Backend) deviceSize() int { return b.metaN + 3*b.n*PageSize }

func (b *Backend) format() {
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], Magic)
	b.dev.Store(offMagic, b8[:])
	binary.LittleEndian.PutUint64(b8[:], uint64(b.n))
	b.dev.Store(offNPages, b8[:])
	binary.LittleEndian.PutUint64(b8[:], 0)
	b.dev.Store(offCommitted, b8[:])
	b.dev.StoreBulk(offStates, make([]byte, 2*b.n))
	b.dev.FlushRange(0, offStates+2*b.n)
	b.dev.SFence()
	b.m.MetadataBytes = int64(offStates + 2*b.n)
}

func (b *Backend) committed() uint64 {
	return binary.LittleEndian.Uint64(b.dev.Working()[offCommitted:])
}

func (b *Backend) pageState(arr, p int) byte {
	return b.dev.Working()[offStates+arr*b.n+p]
}

func (b *Backend) setPageState(arr, p int, s byte) {
	b.dev.Store(offStates+arr*b.n+p, []byte{s})
}

// Name implements ckpt.Backend.
func (b *Backend) Name() string { return b.cfg.Name }

// Size implements ckpt.Backend.
func (b *Backend) Size() int { return b.n * PageSize }

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

// OnWrite implements ckpt.Backend: the page-protection trace.
func (b *Backend) OnWrite(off, n int) {
	if n <= 0 {
		return
	}
	if off < 0 || off+n > b.Size() {
		panic(fmt.Sprintf("pagecow: write [%d,%d) outside heap", off, off+n))
	}
	clock := b.dev.Clock()
	prev := clock.SetCategory(nvm.CatTrace)
	first, last := off/PageSize, (off+n-1)/PageSize
	for p := first; p <= last; p++ {
		if b.dirty.Test(p) {
			continue
		}
		if b.cfg.FaultPerFirstWrite {
			b.dev.ChargePageFault()
		}
		b.m.TraceEvents++
		// Mark the whole group (soft-dirty collateral marking).
		g := b.cfg.MarkGranularityPages
		start := p / g * g
		for q := start; q < start+g && q < b.n; q++ {
			b.dirty.Set(q)
		}
	}
	clock.SetCategory(prev)
}

// Write implements ckpt.Backend.
func (b *Backend) Write(off int, src []byte) {
	b.dev.Write(b.workOff+off, src)
}

// Checkpoint implements ckpt.Backend: replicate dirty pages into the
// inactive copy area and commit.
func (b *Backend) Checkpoint() error {
	clock := b.dev.Clock()
	prev := clock.SetCategory(nvm.CatCheckpoint)
	defer clock.SetCategory(prev)

	b.rec.Begin("checkpoint")
	defer b.rec.End()
	e := b.committed()
	eIdx, neIdx := int(e%2), int((e+1)%2)
	// The per-epoch tracing maintenance: re-protect (mprotect) or walk and
	// clear soft-dirty bits — charged over the whole heap.
	b.rec.Begin("dirty-scan")
	clock.Advance(int64(b.n) * b.cfg.EpochScanPSPerPage)
	b.rec.End()

	// Start the new state array as a copy of the active one; dirty pages
	// are overwritten below. Because each dirty page is copied whole, the
	// per-page state is self-contained — no cross-epoch catch-up exists at
	// page granularity.
	stateBuf := make([]byte, b.n)
	copy(stateBuf, b.dev.Working()[offStates+eIdx*b.n:offStates+eIdx*b.n+b.n])
	b.dev.StoreBulk(offStates+neIdx*b.n, stateBuf)

	b.rec.Begin("copy")
	copied := 0
	work := b.dev.Working()
	for p := b.dirty.NextSet(0); p >= 0; p = b.dirty.NextSet(p + 1) {
		st := b.pageState(eIdx, p)
		// Write to whichever copy does not hold the committed state.
		target := 0
		if st == psCopyA {
			target = 1
		}
		src := b.workOff + p*PageSize
		b.dev.ChargeNVMRead(PageSize)
		b.dev.NTStore(b.copyOff[target]+p*PageSize, work[src:src+PageSize])
		copied += PageSize
		newState := byte(psCopyA)
		if target == 1 {
			newState = psCopyB
		}
		b.setPageState(neIdx, p, newState)
	}
	b.rec.End()
	b.rec.Begin("fence")
	b.dev.SFence()
	b.rec.End()
	b.rec.Begin("commit")
	b.dev.FlushRange(offStates+neIdx*b.n, b.n)
	b.dev.SFence()
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], e+1)
	b.dev.Store(offCommitted, b8[:])
	b.dev.FlushRange(offCommitted, 8)
	b.dev.SFence()
	b.rec.End()

	b.dirty.ClearAll()
	b.m.CheckpointBytes += int64(copied)
	b.m.Epochs++
	return nil
}

// Recover implements ckpt.Backend: rebuild the working area from the
// committed copy areas.
func (b *Backend) Recover() error {
	clock := b.dev.Clock()
	prev := clock.SetCategory(nvm.CatRecovery)
	defer clock.SetCategory(prev)

	b.rec.Begin("recovery")
	defer b.rec.End()
	eIdx := int(b.committed() % 2)
	work := b.dev.Working()
	zero := make([]byte, PageSize)
	for p := 0; p < b.n; p++ {
		dst := b.workOff + p*PageSize
		switch b.pageState(eIdx, p) {
		case psCopyA:
			b.dev.ChargeNVMRead(PageSize)
			b.dev.NTStore(dst, work[b.copyOff[0]+p*PageSize:b.copyOff[0]+(p+1)*PageSize])
			b.m.RecoveryBytes += PageSize
		case psCopyB:
			b.dev.ChargeNVMRead(PageSize)
			b.dev.NTStore(dst, work[b.copyOff[1]+p*PageSize:b.copyOff[1]+(p+1)*PageSize])
			b.m.RecoveryBytes += PageSize
		default:
			// Never-committed page: its state is the formatted zero state;
			// scrub any crash debris.
			if !isZero(work[dst : dst+PageSize]) {
				b.dev.NTStore(dst, zero)
				b.m.RecoveryBytes += PageSize
			}
		}
	}
	b.dev.SFence()
	b.dirty.ClearAll()
	return nil
}

func isZero(p []byte) bool {
	for _, v := range p {
		if v != 0 {
			return false
		}
	}
	return true
}

var _ ckpt.Backend = (*Backend)(nil)
