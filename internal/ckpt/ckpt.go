// Package ckpt defines the contract every checkpoint-recovery system in this
// repository implements: the paper's libcrpm (default and buffered modes)
// and the baselines it is evaluated against (mprotect, soft-dirty bit,
// undo-log, LMC, NVM-NP, FTI).
//
// A Backend owns an application-visible memory arena. All application writes
// are funnelled through OnWrite + Write — the moral equivalent of the
// compiler-inserted hook_routine(addr, len) followed by the original store —
// so each system can trace modifications its own way (dirty bitmaps, page
// faults, undo records, nothing at all). Checkpoint ends an epoch and makes
// the current state recoverable; Recover rebuilds the working state from the
// last committed checkpoint after a crash.
package ckpt

import "libcrpm/internal/nvm"

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
	// FlushedLines counts 64-byte cache lines the system flushed to media
	// (CLWB, flush ranges, fence-drained pending lines). This attributes
	// flush traffic per backend: differential checkpointing pays it in
	// bursts at checkpoint time, logging schemes pay it per write.
	FlushedLines int64
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
		FlushedLines:    m.FlushedLines - o.FlushedLines,
		MetadataBytes:   m.MetadataBytes,
	}
}
