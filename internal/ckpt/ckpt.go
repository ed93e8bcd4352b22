// Package ckpt defines the contract every checkpoint-recovery system in this
// repository implements: the paper's libcrpm (default and buffered modes),
// the baselines it is evaluated against (mprotect, soft-dirty bit, undo-log,
// LMC, NVM-NP, FTI, and Dalí's hash map, which implements pds.KV instead of
// Backend), and InCLL.
//
// A Backend owns an application-visible memory arena. All application writes
// are funnelled through OnWrite + Write — the moral equivalent of the
// compiler-inserted hook_routine(addr, len) followed by the original store —
// so each system can trace modifications its own way (dirty bitmaps, page
// faults, undo records, nothing at all). Checkpoint ends an epoch and makes
// the current state recoverable; Recover rebuilds the working state from the
// last committed checkpoint after a crash.
//
// The six systems that own one whole device (LMC, undo-log, page-CoW behind
// mprotect and soft-dirty, FTI, InCLL and Dalí) start it with the same
// 24-byte header, formatted, checked and committed through FormatHeader,
// CheckHeader, CommitWord and SetCommitWord.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"

	"libcrpm/internal/nvm"
)

// Backend is a checkpoint-recovery system managing one container of
// application state.
type Backend interface {
	// Name identifies the system in experiment output.
	Name() string
	// Size returns the arena capacity in bytes.
	Size() int
	// Bytes returns the application-visible working memory. Callers may
	// read it directly after calling OnRead, but must perform every
	// mutation through OnWrite+Write. It is valid until the backend's
	// device closes: it is the device's working array or its DRAM
	// (nvm.Device.DRAM), and Close unmaps or reuses both, so a caller
	// that reads it must also hold the backend or its device.
	Bytes() []byte
	// OnRead charges the cost of reading n bytes at off (DRAM- or
	// NVM-resident, depending on the system).
	OnRead(off, n int)
	// OnWrite is the instrumentation hook executed before a store to
	// [off, off+n). It performs the system's memory tracing: dirty-bit
	// updates, copy-on-write, page-fault simulation, undo logging.
	OnWrite(off, n int)
	// Write performs the store itself. Callers must have called OnWrite for
	// the same range first. Write never mutates src, so callers may pass a
	// buffer they share (heap.Zero passes one zero buffer to every backend).
	Write(off int, src []byte)
	// Checkpoint ends the current epoch, making the present working state
	// the recoverable checkpoint state.
	Checkpoint() error
	// Recover rebuilds the working state from the last committed checkpoint.
	// It is called after the device has crashed (or at first open).
	Recover() error
	// Device returns the simulated NVM device backing this container.
	Device() *nvm.Device
	// Metrics returns cumulative checkpoint-system metrics.
	Metrics() Metrics
}

// Metrics aggregates system-level counters used by the paper's tables.
type Metrics struct {
	// Epochs counts completed checkpoints.
	Epochs int64
	// CheckpointBytes counts bytes copied or persisted to construct
	// checkpoint states: copy-on-write copies, dirty page/block writes,
	// undo records, full-state snapshots. This is the "checkpoint size"
	// of Table 1a.
	CheckpointBytes int64
	// TraceEvents counts memory-tracing events (hooks that did work:
	// faults taken, records appended, first-touch bits set).
	TraceEvents int64
	// RecoveryBytes counts bytes copied during recoveries.
	RecoveryBytes int64
	// MetadataBytes is the persistent metadata footprint of the container.
	MetadataBytes int64
}

// Sub returns the element-wise difference m - o.
func (m Metrics) Sub(o Metrics) Metrics {
	return Metrics{
		Epochs:          m.Epochs - o.Epochs,
		CheckpointBytes: m.CheckpointBytes - o.CheckpointBytes,
		TraceEvents:     m.TraceEvents - o.TraceEvents,
		RecoveryBytes:   m.RecoveryBytes - o.RecoveryBytes,
		MetadataBytes:   m.MetadataBytes,
	}
}

// The device header: a system's magic, its geometry (the granule, page,
// bucket or byte count its layout derives from) and its commit word, one
// 8-byte word each at the start of the device.
const (
	OffMagic   = 0
	OffGeom    = 8
	OffCommit  = 16
	HeaderSize = 24
)

// FormatHeader stores magic, geom and a zero commit word. It neither flushes
// nor fences: the caller persists the header together with whatever else its
// format writes.
func FormatHeader(dev *nvm.Device, magic uint64, geom int) {
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], magic)
	dev.Store(OffMagic, b8[:])
	binary.LittleEndian.PutUint64(b8[:], uint64(geom))
	dev.Store(OffGeom, b8[:])
	binary.LittleEndian.PutUint64(b8[:], 0)
	dev.Store(OffCommit, b8[:])
}

// CheckHeader reports why dev cannot hold system name's container: it is
// smaller than need bytes, its magic is not magic, or its geometry (what,
// e.g. "granule count") is not geom.
func CheckHeader(dev *nvm.Device, name string, need int, magic uint64, what string, geom int) error {
	if dev.Size() < need {
		return errors.New(name + ": device too small")
	}
	w := dev.Working()
	if got := binary.LittleEndian.Uint64(w[OffMagic:]); got != magic {
		return fmt.Errorf("%s: bad magic %#x", name, got)
	}
	if got := int(binary.LittleEndian.Uint64(w[OffGeom:])); got != geom {
		return fmt.Errorf("%s: %s mismatch: %d vs %d", name, what, got, geom)
	}
	return nil
}

// CommitWord reads the commit word as the working image holds it.
func CommitWord(dev *nvm.Device) uint64 {
	return binary.LittleEndian.Uint64(dev.Working()[OffCommit:])
}

// SetCommitWord stores v as the commit word and flushes it; the caller
// fences.
func SetCommitWord(dev *nvm.Device, v uint64) {
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], v)
	dev.Store(OffCommit, b8[:])
	dev.FlushRange(OffCommit, 8)
}
