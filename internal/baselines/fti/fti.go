// Package fti implements an FTI-style application-level checkpoint-recovery
// baseline (§5.1): program state lives in application (DRAM) memory, and
// every checkpoint serializes the protected region into one of two
// double-buffered NVM slots with a checksum, committing by flipping an
// atomic record — multilevel checkpointing disabled, as in the paper's
// configuration. An optional hash-based incremental mode reproduces
// footnote 4: per-block hashes skip unchanged blocks, but computing them
// over the whole protected region dominates the checkpoint time.
package fti

import (
	"errors"
	"fmt"
	"hash/crc64"

	"libcrpm/internal/ckpt"
	"libcrpm/internal/nvm"
)

// Magic identifies a formatted FTI container.
const Magic uint64 = 0x4352504d46544920 // "CRPMFTI "

// HashBlockSize is the granularity of the incremental-hash mode.
const HashBlockSize = 256

const metaSize = 4096

var crcTable = crc64.MakeTable(crc64.ECMA)

// fsWritePSPerByte is the extra per-byte cost of FTI's checkpoint write
// path: unlike libcrpm's direct non-temporal stores, FTI writes serialized
// checkpoint files through POSIX I/O (buffer management, syscalls, the DAX
// filesystem), which published measurements put at roughly half the raw NT
// store bandwidth.
const fsWritePSPerByte = 900

// Config selects the FTI flavour.
type Config struct {
	// HeapSize is the protected-region capacity.
	HeapSize int
	// Incremental enables the hash-based incremental mode (footnote 4).
	Incremental bool
}

// Backend is one FTI-protected container.
type Backend struct {
	cfg Config
	dev *nvm.Device
	buf []byte // DRAM working state, the device's (nvm.Device.DRAM)

	slotOff [2]int
	// protected is the prefix of the heap that checkpoints serialize;
	// applications shrink it to their actual state size via Protect.
	protected int

	// blockHash caches per-slot block hashes for the incremental mode.
	blockHash [2][]uint64

	m ckpt.Metrics
}

// New formats a fresh container on its own device.
func New(cfg Config) (*Backend, error) {
	b, err := layout(cfg)
	if err != nil {
		return nil, err
	}
	b.dev = nvm.NewDevice(b.deviceSize())
	b.buf = b.dev.DRAM(b.cfg.HeapSize)
	ckpt.FormatHeader(b.dev, Magic, cfg.HeapSize)
	b.dev.FlushRange(0, ckpt.HeaderSize)
	b.dev.SFence()
	b.m.MetadataBytes = ckpt.HeaderSize
	return b, nil
}

// Open attaches after a crash and recovers the committed snapshot.
func Open(cfg Config, dev *nvm.Device) (*Backend, error) {
	b, err := layout(cfg)
	if err != nil {
		return nil, err
	}
	if err := ckpt.CheckHeader(dev, "fti", b.deviceSize(), Magic, "size", cfg.HeapSize); err != nil {
		return nil, err
	}
	b.dev = dev
	b.buf = dev.DRAM(b.cfg.HeapSize)
	if err := b.Recover(); err != nil {
		return nil, err
	}
	return b, nil
}

// layout is the geometry of a cfg container, without its buffer: New and
// Open take that from the device's DRAM once the device exists.
func layout(cfg Config) (*Backend, error) {
	if cfg.HeapSize <= 0 {
		return nil, errors.New("fti: heap size must be positive")
	}
	n := (cfg.HeapSize + HashBlockSize - 1) / HashBlockSize * HashBlockSize
	cfg.HeapSize = n
	b := &Backend{cfg: cfg, protected: n}
	b.slotOff[0] = metaSize
	b.slotOff[1] = metaSize + n
	if cfg.Incremental {
		nb := n / HashBlockSize
		b.blockHash[0] = make([]uint64, nb)
		b.blockHash[1] = make([]uint64, nb)
	}
	return b, nil
}

func (b *Backend) deviceSize() int { return metaSize + 2*b.cfg.HeapSize }

// commit unpacks the commit word: epoch (high 32 bits) and slot (low 32),
// atomically updated together.
func (b *Backend) commit() (epoch, slot uint32) {
	v := ckpt.CommitWord(b.dev)
	return uint32(v >> 32), uint32(v)
}

func (b *Backend) setCommit(epoch, slot uint32) {
	ckpt.SetCommitWord(b.dev, uint64(epoch)<<32|uint64(slot))
}

// Protect restricts serialization to the first n bytes of the heap,
// mirroring FTI_Protect registration. It may only grow state that was
// already covered; shrinking below data in use is the caller's
// responsibility.
func (b *Backend) Protect(n int) {
	if n < 0 || n > len(b.buf) {
		panic(fmt.Sprintf("fti: Protect(%d) outside heap of %d", n, len(b.buf)))
	}
	b.protected = (n + HashBlockSize - 1) / HashBlockSize * HashBlockSize
}

// Protected returns the registered checkpoint-state size in bytes.
func (b *Backend) Protected() int { return b.protected }

// Name implements ckpt.Backend.
func (b *Backend) Name() string {
	if b.cfg.Incremental {
		return "FTI-incremental"
	}
	return "FTI"
}

// Size implements ckpt.Backend.
func (b *Backend) Size() int { return len(b.buf) }

// Bytes implements ckpt.Backend.
func (b *Backend) Bytes() []byte { return b.buf }

// Device implements ckpt.Backend.
func (b *Backend) Device() *nvm.Device { return b.dev }

// Metrics implements ckpt.Backend.
func (b *Backend) Metrics() ckpt.Metrics {
	return b.m
}

// OnRead implements ckpt.Backend: DRAM-resident reads.
func (b *Backend) OnRead(off, n int) {
	b.dev.ChargeDRAMRead(n)
}

// OnWrite implements ckpt.Backend: FTI traces nothing during execution.
func (b *Backend) OnWrite(off, n int) {
	if off < 0 || off+n > len(b.buf) {
		panic(fmt.Sprintf("fti: write [%d,%d) outside heap", off, off+n))
	}
}

// Write implements ckpt.Backend: a DRAM store.
func (b *Backend) Write(off int, src []byte) {
	copy(b.buf[off:], src)
	b.dev.ChargeDRAMWrite(len(src))
}

// Checkpoint implements ckpt.Backend: serialize the protected region into
// the inactive slot and flip the commit record.
func (b *Backend) Checkpoint() error {
	clock := b.dev.Clock()
	prev := clock.SetCategory(nvm.CatCheckpoint)
	defer clock.SetCategory(prev)

	epoch, slot := b.commit()
	target := int(1 - slot%2)
	if epoch == 0 {
		target = 0
	}
	n := b.protected
	written := 0
	if b.cfg.Incremental {
		// Footnote 4: hash every block of the protected region, write only
		// the blocks whose hash changed relative to the target slot.
		b.dev.ChargeHash(n)
		for blk := 0; blk < n/HashBlockSize; blk++ {
			off := blk * HashBlockSize
			h := crc64.Checksum(b.buf[off:off+HashBlockSize], crcTable)
			if h == 0 {
				h = 1 // 0 is the "unknown" sentinel in the cache
			}
			if b.blockHash[target][blk] == h {
				continue
			}
			b.dev.ChargeDRAMCopy(HashBlockSize)
			b.dev.NTStore(b.slotOff[target]+off, b.buf[off:off+HashBlockSize])
			b.dev.Clock().Advance(int64(HashBlockSize) * fsWritePSPerByte)
			b.blockHash[target][blk] = h
			written += HashBlockSize
		}
	} else {
		// Full checkpoint: one serialized stream plus its checksum,
		// written through the filesystem path.
		b.dev.ChargeHash(n)
		b.dev.ChargeDRAMCopy(n)
		b.dev.NTStore(b.slotOff[target], b.buf[:n])
		b.dev.Clock().Advance(int64(n) * fsWritePSPerByte)
		written = n
	}
	b.dev.SFence()
	b.setCommit(epoch+1, uint32(target))
	b.dev.SFence()
	b.m.CheckpointBytes += int64(written)
	b.m.Epochs++
	return nil
}

// CommittedEpoch returns the committed checkpoint counter (for coordinated
// multi-rank recovery).
func (b *Backend) CommittedEpoch() uint64 {
	e, _ := b.commit()
	return uint64(e)
}

// RollbackOneEpoch makes the previous checkpoint slot active again. Because
// the two slots alternate, epoch e-1's snapshot is intact until the next
// checkpoint after e begins — the same coordinated-recovery window libcrpm
// provides (§3.6). Only legal immediately after a crash, before any new
// checkpoint.
func (b *Backend) RollbackOneEpoch() error {
	epoch, slot := b.commit()
	if epoch == 0 {
		return errors.New("fti: no earlier epoch to roll back to")
	}
	b.setCommit(epoch-1, 1-slot%2)
	b.dev.SFence()
	return nil
}

// Recover implements ckpt.Backend: load the committed snapshot into DRAM.
func (b *Backend) Recover() error {
	clock := b.dev.Clock()
	prev := clock.SetCategory(nvm.CatRecovery)
	defer clock.SetCategory(prev)

	epoch, slot := b.commit()
	if epoch == 0 {
		// Nothing ever committed: the state is the fresh zero heap.
		for i := range b.buf {
			b.buf[i] = 0
		}
		return nil
	}
	off := b.slotOff[int(slot%2)]
	b.dev.ChargeNVMRead(len(b.buf))
	b.dev.ChargeDRAMCopy(len(b.buf))
	copy(b.buf, b.dev.Working()[off:off+len(b.buf)])
	b.m.RecoveryBytes += int64(len(b.buf))
	if b.cfg.Incremental {
		// Hash caches are volatile; conservative reset forces full writes
		// on the next checkpoints.
		for s := 0; s < 2; s++ {
			for i := range b.blockHash[s] {
				b.blockHash[s][i] = 0
			}
		}
	}
	return nil
}

var _ ckpt.Backend = (*Backend)(nil)
