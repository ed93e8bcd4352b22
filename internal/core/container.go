// Package core implements libcrpm's failure-atomic differential
// checkpointing protocol (paper §3): segment-level copy-on-write with
// block-granularity differential copies over the compacted main/backup
// region layout, the two-array segment-state commit, the buffered (DRAM)
// mode, and the recovery protocol. It is the system under test for every
// experiment in the paper.
package core

import (
	"errors"
	"fmt"
	"sync"

	"libcrpm/internal/bitmap"
	"libcrpm/internal/ckpt"
	"libcrpm/internal/nvm"
	"libcrpm/internal/obs"
	"libcrpm/internal/region"
)

// Mode selects where the working state lives.
type Mode int

const (
	// ModeDefault keeps the working state in the NVM main region; stores go
	// to NVM through the cache and segment-level copy-on-write protects the
	// checkpoint state (§3.4).
	ModeDefault Mode = iota
	// ModeBuffered keeps the working state in DRAM; checkpoints replicate
	// dirty blocks into the main or backup region, alternating per segment
	// (§3.5).
	ModeBuffered
)

// String names the mode as in the paper's figures.
func (m Mode) String() string {
	if m == ModeBuffered {
		return "libcrpm-Buffered"
	}
	return "libcrpm-Default"
}

// Options configures a container.
type Options struct {
	// Region selects the geometry (heap size, segment size, block size,
	// backup ratio).
	Region region.Config
	// Mode selects default (NVM-resident) or buffered (DRAM-resident)
	// operation.
	Mode Mode
	// LLCSize is the last-level-cache threshold for choosing clwb loops vs
	// wbinvd during the checkpoint flush (§3.4.2). Default 32 MB.
	LLCSize int
	// EagerCoWSegments: if at the end of a checkpoint the number of dirty
	// segments is below this threshold, their copy-on-write is executed
	// immediately during the checkpoint period, saving two fences per
	// segment in the next epoch (§3.4.2). Default 64. Set negative to
	// disable.
	EagerCoWSegments int
	// Concurrent serializes the instrumented write path with an internal
	// lock so multiple application threads may share the container. The
	// protocol's per-segment locks are used either way.
	Concurrent bool
	// NoAutoRepair disables the automatic region.Repair attempt when Open
	// detects corrupt checksummed metadata; the typed error is surfaced
	// instead. Useful for fsck-style tooling that wants to report before
	// repairing.
	NoAutoRepair bool
	// Trace attaches a phase recorder. Nil (the default) disables tracing;
	// every recorder call is then a nil-receiver no-op, and the instrumented
	// write path contains no recorder calls at all, so the option is free
	// when unused. Spans are emitted around checkpoint phases (flush, fence,
	// commit, eager CoW), execution-period copy-on-write, and recovery.
	Trace *obs.Recorder
}

func (o Options) withDefaults() Options {
	if o.LLCSize == 0 {
		o.LLCSize = 32 << 20
	}
	if o.EagerCoWSegments == 0 {
		o.EagerCoWSegments = 64
	}
	return o
}

// ErrBackupExhausted is returned when an epoch modifies more segments than
// the backup region can protect. Increase BackupRatio or checkpoint more
// often.
var ErrBackupExhausted = errors.New("core: backup region exhausted; too many segments modified in one epoch")

// Container is one libcrpm container: a heap of program state with
// checkpoint-recovery semantics.
type Container struct {
	dev  *nvm.Device
	meta *region.Meta
	l    *region.Layout
	opts Options

	// writeMu serializes the instrumented write path when opts.Concurrent.
	writeMu sync.Mutex
	// segLocks serialize copy-on-write per main segment (§3.4.4).
	segLocks []sync.Mutex
	// allocMu protects the pairing caches and free list.
	allocMu sync.Mutex

	// Volatile (DRAM) protocol state. Rebuilt from metadata at recovery.
	dirtyBlocks *bitmap.Set // blocks modified since their segment's last CoW
	dirtySegs   *bitmap.Set // segments modified in the current epoch
	// lastBlk memoizes the block the previous OnWrite marked dirty
	// (-1 = none this epoch). A write falling entirely inside it needs no
	// segment CoW test and no bitmap Set — only the elided-hook charge the
	// already-dirty path pays — so sequential and repeated stores skip the
	// bookkeeping. Must be reset whenever dirty state is cleared
	// (checkpoint, recovery).
	lastBlk      int
	mainToBackup []uint32 // inverse of the persistent backup_to_main array
	freeBackups  []uint32 // backup segments with no pairing
	// inc is the in-flight incremental checkpoint (pipeline.go); nil means
	// idle, and every write-path pipeline guard vanishes.
	inc *incState
	// incFree is the last finished pipeline's drained state, reused by the
	// next CheckpointBegin or DeferCoW instead of allocating afresh.
	incFree *incState
	// gapBytes is the replay work the gaps StepCoW was shown since the last
	// DeferCoW had room for, what that call's gate goes by; gapEndPS is the
	// end of the latest of them.
	gapBytes, gapEndPS int64

	// Write-through scopes (writethrough.go; default mode). wt is set while
	// a scope is open and wtBlks lists the blocks stored inside it; pre marks
	// the blocks a closed scope flushed and fenced that no store has touched
	// since, which the next checkpoint skips. wtOn == wt || pre.Any() is the
	// one test the write hook pays; pre is allocated by the first scope.
	wt, wtOn bool
	wtBlks   []int
	pre      *bitmap.Set
	// preQ[preHead:] hints, oldest first, at the blocks that became dirty and
	// unmarked this epoch — PreFlush's work list. The write hook fills it only
	// once a PreFlush has asked (preOn), so a container never asked pays one
	// untaken branch on the hook's slow path.
	preQ    []int
	preHead int
	preOn   bool
	// preLag is preFlushLag; a field only so tests on block counts far below
	// the constant can reach the flush.
	preLag int

	// Buffered-mode state.
	buf           []byte      // DRAM working buffer
	curDirty      *bitmap.Set // blocks written in the current epoch
	pendingMain   *bitmap.Set // blocks where the main region differs from the committed state
	pendingBackup *bitmap.Set // blocks where backup copies differ from the committed state
	// virginBackups marks backup segments whose media has never been
	// written since format: their content is provably zero, so pairing one
	// needs no conservative full-segment copy (the pending bitmaps track
	// every nonzero difference since format). Cleared wholesale at
	// recovery, when pre-crash writes may have dirtied unpaired backups.
	virginBackups *bitmap.Set

	metrics ckpt.Metrics
	// rec receives phase spans; nil means tracing is disabled (all calls
	// no-op). Deliberately absent from OnWrite/Write steady state.
	rec *obs.Recorder
	// cowBytes counts copy-on-write traffic separately from checkpoint-
	// period traffic (design-choice ablation).
	cowBytes int64
	// lastRecovery records the phase breakdown of the most recent Recover.
	lastRecovery RecoveryPhases
}

// NewContainer formats a fresh container on the device.
func NewContainer(dev *nvm.Device, opts Options) (*Container, error) {
	opts = opts.withDefaults()
	l, err := region.NewLayout(opts.Region)
	if err != nil {
		return nil, err
	}
	meta, err := region.Format(dev, l)
	if err != nil {
		return nil, err
	}
	c := newContainer(dev, meta, l, opts)
	if opts.Mode == ModeBuffered {
		c.buf = make([]byte, l.HeapSize())
	}
	return c, nil
}

// OpenContainer opens an existing container after a restart (or crash) and
// runs the recovery protocol, leaving the working state equal to the last
// committed checkpoint state.
func OpenContainer(dev *nvm.Device, opts Options) (*Container, error) {
	c, err := OpenContainerDeferRecovery(dev, opts)
	if err != nil {
		return nil, err
	}
	if err := c.Recover(); err != nil {
		return nil, err
	}
	return c, nil
}

// OpenContainerDeferRecovery opens an existing container without running the
// recovery protocol. This is the coordinated-recovery entry point (§3.6):
// MPI processes first read their committed epoch numbers, agree on the
// minimum, call RollbackOneEpoch where needed, and only then Recover — the
// pair-resynchronization of recovery would otherwise overwrite epoch e-1's
// backup copies before the rollback decision is made. Callers must invoke
// Recover before using the working state.
func OpenContainerDeferRecovery(dev *nvm.Device, opts Options) (*Container, error) {
	opts = opts.withDefaults()
	l, err := region.NewLayout(opts.Region)
	if err != nil {
		return nil, err
	}
	meta, err := region.Open(dev, l)
	if err != nil && opts.Region.Checksums && !opts.NoAutoRepair {
		// The header itself may be the corrupt line; with checksums enabled
		// it is reconstructible from the shadow copy.
		if _, rerr := region.Repair(dev, l); rerr != nil {
			return nil, fmt.Errorf("%w: open failed (%v); repair failed: %v", ErrUnrecoverable, err, rerr)
		}
		if meta, err = region.Open(dev, l); err != nil {
			return nil, fmt.Errorf("%w: open still failing after repair: %v", ErrUnrecoverable, err)
		}
	}
	if err != nil {
		return nil, err
	}
	if l.Checksummed() {
		if verr := region.Validate(dev, l); verr != nil {
			if opts.NoAutoRepair {
				return nil, fmt.Errorf("%w: %v", ErrCorruptMetadata, verr)
			}
			if _, rerr := region.Repair(dev, l); rerr != nil {
				return nil, fmt.Errorf("%w: %v", ErrUnrecoverable, rerr)
			}
			if verr := region.Validate(dev, l); verr != nil {
				return nil, fmt.Errorf("%w: still invalid after repair: %v", ErrUnrecoverable, verr)
			}
		}
	}
	c := newContainer(dev, meta, l, opts)
	if opts.Mode == ModeBuffered {
		c.buf = make([]byte, l.HeapSize())
	}
	return c, nil
}

func newContainer(dev *nvm.Device, meta *region.Meta, l *region.Layout, opts Options) *Container {
	c := &Container{
		dev:          dev,
		meta:         meta,
		l:            l,
		opts:         opts,
		segLocks:     make([]sync.Mutex, l.NMain),
		dirtyBlocks:  bitmap.New(l.TotalBlocks()),
		dirtySegs:    bitmap.New(l.NMain),
		lastBlk:      -1,
		preLag:       preFlushLag,
		mainToBackup: make([]uint32, l.NMain),
		freeBackups:  make([]uint32, 0, l.NBackup),
		rec:          opts.Trace,
	}
	c.metrics.MetadataBytes = int64(l.MetadataSize())
	if opts.Mode == ModeBuffered {
		c.curDirty = bitmap.New(l.TotalBlocks())
		c.pendingMain = bitmap.New(l.TotalBlocks())
		c.pendingBackup = bitmap.New(l.TotalBlocks())
		c.virginBackups = bitmap.New(l.NBackup)
		c.virginBackups.SetRange(0, l.NBackup)
	}
	c.rebuildPairings()
	return c
}

// rebuildPairings reconstructs the DRAM pairing caches from the persistent
// backup_to_main array.
func (c *Container) rebuildPairings() {
	for i := range c.mainToBackup {
		c.mainToBackup[i] = region.NoPair
	}
	c.freeBackups = c.freeBackups[:0]
	for j := 0; j < c.l.NBackup; j++ {
		m := c.meta.BackupToMain(j)
		if m == region.NoPair || int(m) >= c.l.NMain {
			c.freeBackups = append(c.freeBackups, uint32(j))
			continue
		}
		c.mainToBackup[m] = uint32(j)
	}
}

// Name implements ckpt.Backend.
func (c *Container) Name() string { return c.opts.Mode.String() }

// Size implements ckpt.Backend.
func (c *Container) Size() int { return c.l.HeapSize() }

// Device implements ckpt.Backend.
func (c *Container) Device() *nvm.Device { return c.dev }

// Layout exposes the geometry for harnesses and tests.
func (c *Container) Layout() *region.Layout { return c.l }

// CommittedEpoch returns the last committed epoch number.
func (c *Container) CommittedEpoch() uint64 { return c.meta.CommittedEpoch() }

// Bytes implements ckpt.Backend: the application-visible working memory.
func (c *Container) Bytes() []byte {
	if c.opts.Mode == ModeBuffered {
		return c.buf
	}
	base := c.l.HeapToDevice(0)
	return c.dev.Working()[base : base+c.l.HeapSize()]
}

// OnRead implements ckpt.Backend.
func (c *Container) OnRead(off, n int) {
	if c.opts.Concurrent {
		c.writeMu.Lock()
		defer c.writeMu.Unlock()
	}
	if c.opts.Mode == ModeBuffered {
		c.dev.ChargeDRAMRead(n)
		return
	}
	c.dev.ChargeRead(n)
}

// OnWrite implements ckpt.Backend: the instrumented hook executed before a
// store to [off, off+n) (Figure 6, lines 20-24). It records the dirty
// block(s) and triggers segment-level copy-on-write on the first touch of a
// segment in the epoch.
func (c *Container) OnWrite(off, n int) {
	if n <= 0 {
		return
	}
	if off < 0 || off+n > c.l.HeapSize() {
		panic(fmt.Sprintf("core: write [%d,%d) outside heap of %d bytes", off, off+n, c.l.HeapSize()))
	}
	if c.opts.Concurrent {
		c.writeMu.Lock()
		defer c.writeMu.Unlock()
	}
	clock := c.dev.Clock()
	first, last := c.l.BlockOf(off), c.l.BlockOf(off+n-1)
	// Last-hit memoization: sequential and repeated stores land in the
	// block the previous OnWrite already marked dirty, where both branches
	// below would take their already-dirty path anyway. Charge that path's
	// elided-hook cost and skip the CoW test and bitmap walk. lastBlk is
	// reset wherever dirty state is cleared, so a hit proves the block (and
	// its segment) is still dirty this epoch.
	if first == c.lastBlk && last == c.lastBlk {
		prev := clock.SetCategory(nvm.CatTrace)
		clock.Advance(c.dev.Cost().HookPS / 4)
		clock.SetCategory(prev)
		return
	}
	prev := clock.SetCategory(nvm.CatTrace)
	if c.opts.Mode == ModeBuffered {
		if inc := c.inc; inc != nil {
			c.incOnWriteBuffered(inc, first, last)
		}
		for b := first; b <= last; b++ {
			if c.curDirty.Set(b) {
				// First touch of the block this epoch: full hook work.
				c.dev.ChargeHook()
				c.metrics.TraceEvents++
				c.dirtySegs.Set(b * c.l.BlkSize / c.l.SegSize)
			} else {
				// Already-dirty fast path: the compiler pass elides or
				// hoists redundant instrumentation (§3.1), leaving a bare
				// bitmap test.
				clock.Advance(c.dev.Cost().HookPS / 4)
			}
		}
		c.lastBlk = last
		clock.SetCategory(prev)
		return
	}
	if inc := c.inc; inc != nil {
		c.incOnWriteDefault(inc, off, n)
		c.lastBlk = last
		clock.SetCategory(prev)
		return
	}
	firstSeg, lastSeg := c.l.SegOf(off), c.l.SegOf(off+n-1)
	for s := firstSeg; s <= lastSeg; s++ {
		if !c.dirtySegs.Test(s) {
			c.copyOnWrite(s)
		}
	}
	for b := first; b <= last; b++ {
		if c.dirtyBlocks.Set(b) {
			c.dev.ChargeHook()
			c.metrics.TraceEvents++
			if c.preOn {
				c.preQ = append(c.preQ, b)
			}
		} else {
			clock.Advance(c.dev.Cost().HookPS / 4)
		}
	}
	c.lastBlk = last
	if c.wtOn {
		c.wtNote(first, last)
	}
	clock.SetCategory(prev)
}

// Write implements ckpt.Backend: the store itself, after OnWrite.
func (c *Container) Write(off int, src []byte) {
	if c.opts.Concurrent {
		c.writeMu.Lock()
		defer c.writeMu.Unlock()
	}
	if c.opts.Mode == ModeBuffered {
		copy(c.buf[off:], src)
		c.dev.ChargeDRAMWrite(len(src))
		return
	}
	if inc := c.inc; inc != nil && c.incSpansQuarantine(off, len(src)) {
		c.incWrite(inc, off, src)
		return
	}
	c.dev.Write(c.l.HeapToDevice(off), src)
}

// SetTrace attaches (or, with nil, detaches) a phase recorder after
// construction. Implements obs.Traceable.
func (c *Container) SetTrace(r *obs.Recorder) { c.rec = r }

// Metrics implements ckpt.Backend.
func (c *Container) Metrics() ckpt.Metrics {
	m := c.metrics
	m.FlushedLines = c.dev.Stats().FlushedLines
	return m
}

// CoWBytes returns cumulative copy-on-write traffic (execution-period
// differential copies), reported separately from checkpoint-period bytes.
func (c *Container) CoWBytes() int64 { return c.cowBytes }

// DirtyInfo returns the current dirty segment and block counts (debugging
// and tests).
func (c *Container) DirtyInfo() (segs, blocks int) {
	if c.opts.Mode == ModeBuffered {
		return c.dirtySegs.Count(), c.curDirty.Count()
	}
	return c.dirtySegs.Count(), c.dirtyBlocks.Count()
}

// DirtyEstimateBytes estimates what the current epoch has dirtied — blocks
// times block size — for byte-threshold cut policies. In default mode that is
// the cut set plus what early write-back already flushed of it, not every set
// bit of the dirty-block bitmap: differential bits outlive the checkpoint
// until their segment's next copy-on-write, and a segment nobody wrote this
// epoch owes the next cut nothing.
func (c *Container) DirtyEstimateBytes() uint64 {
	if c.opts.Mode == ModeBuffered {
		return uint64(c.curDirty.Count() * c.l.BlkSize)
	}
	n := c.pendingDefault()
	if c.wtOn {
		n += c.pre.Count() * c.l.BlkSize
	}
	return uint64(n)
}

// DirtySegments returns the ascending indices of the main segments
// modified in the current epoch — at a cut boundary, exactly the segments
// whose committed images may differ from the previous cut's. Replication
// captures these as the epoch's delta.
func (c *Container) DirtySegments() []int {
	if c.dirtySegs.Count() == 0 {
		return nil
	}
	out := make([]int, 0, c.dirtySegs.Count())
	c.dirtySegs.ForEach(func(i int) { out = append(out, i) })
	return out
}

// DRAMFootprint returns the volatile memory the container uses: the
// buffered-mode working buffer plus the dirty bitmaps (§5.6).
func (c *Container) DRAMFootprint() int {
	bits := c.dirtyBlocks.Len() + c.dirtySegs.Len()
	if c.opts.Mode == ModeBuffered {
		bits = c.curDirty.Len() + c.pendingMain.Len() + c.pendingBackup.Len() + c.dirtySegs.Len()
	}
	n := bits / 8
	if c.buf != nil {
		n += len(c.buf)
	}
	return n + 4*len(c.mainToBackup)
}

// NVMFootprint returns the persistent bytes the container occupies (§5.6).
func (c *Container) NVMFootprint() int { return c.l.DeviceSize() }
