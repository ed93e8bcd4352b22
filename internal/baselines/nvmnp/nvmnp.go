// Package nvmnp implements the NVM-NP baseline of the paper's evaluation
// (§5.1): program state lives in NVM and is directly modified there, but no
// persistence instruction is ever issued. It is the performance upper bound
// — and provides no recoverability whatsoever: after a crash the working
// state is whatever happened to reach the media.
package nvmnp

import (
	"libcrpm/internal/ckpt"
	"libcrpm/internal/nvm"
)

// Backend is the no-persistence NVM heap.
type Backend struct {
	dev  *nvm.Device
	size int
	m    ckpt.Metrics
}

// New creates an NVM-NP heap of the given size on a fresh device sized to
// fit it.
func New(size int) *Backend {
	return &Backend{dev: nvm.NewDevice(size), size: size}
}

// Name implements ckpt.Backend.
func (b *Backend) Name() string { return "NVM-NP" }

// Size implements ckpt.Backend.
func (b *Backend) Size() int { return b.size }

// Bytes implements ckpt.Backend.
func (b *Backend) Bytes() []byte { return b.dev.Working()[:b.size] }

// OnRead implements ckpt.Backend.
func (b *Backend) OnRead(off, n int) {
	b.dev.ChargeRead(n)
}

// OnWrite implements ckpt.Backend: no tracing at all.
func (b *Backend) OnWrite(off, n int) {}

// Write implements ckpt.Backend.
func (b *Backend) Write(off int, src []byte) {
	b.dev.Write(off, src)
}

// Checkpoint implements ckpt.Backend as a no-op: NVM-NP has nothing to make
// durable.
func (b *Backend) Checkpoint() error {
	b.m.Epochs++
	return nil
}

// Recover implements ckpt.Backend as a no-op; the post-crash state is
// undefined, which is the point of this baseline.
func (b *Backend) Recover() error { return nil }

// Device implements ckpt.Backend.
func (b *Backend) Device() *nvm.Device { return b.dev }

// Metrics implements ckpt.Backend.
func (b *Backend) Metrics() ckpt.Metrics {
	m := b.m
	m.FlushedLines = b.dev.Stats().FlushedLines
	return m
}

var _ ckpt.Backend = (*Backend)(nil)
