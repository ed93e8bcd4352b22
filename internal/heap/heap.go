// Package heap provides typed, instrumented accessors over a checkpoint
// backend's memory arena. It plays the role of the paper's compiler pass:
// every mutation of program state goes through a Write method, which invokes
// the backend's OnWrite hook before the store, exactly as the instrumented
// binary calls hook_routine(addr, len) before each modifying instruction.
//
// All persistent data structures in this repository address memory by
// offset, never by Go pointer, so recovered state is position-independent.
package heap

import (
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"

	"libcrpm/internal/ckpt"
)

// Heap is the instrumented view of one backend arena.
type Heap struct {
	b   ckpt.Backend
	mem []byte
	// word stages the fixed-width stores: handing a stack array to
	// Backend.Write — an interface call — would move it to the heap on
	// every store. Application threads that share a heap (a backend with
	// core.Options.Concurrent) take mu around it; for everyone else mu is
	// nil and the store pays nothing for it.
	word [8]byte
	mu   *sync.Mutex
}

// New wraps a backend.
func New(b ckpt.Backend) *Heap {
	h := &Heap{b: b, mem: b.Bytes()}
	if c, ok := b.(interface{ Concurrent() bool }); ok && c.Concurrent() {
		h.mu = new(sync.Mutex)
	}
	return h
}

// writeWord stores the low n bytes of v, little-endian.
func (h *Heap) writeWord(off, n int, v uint64) {
	if h.mu != nil {
		h.mu.Lock()
		defer h.mu.Unlock()
	}
	binary.LittleEndian.PutUint64(h.word[:], v)
	h.b.OnWrite(off, n)
	h.b.Write(off, h.word[:n])
}

// Backend returns the underlying checkpoint system.
func (h *Heap) Backend() ckpt.Backend { return h.b }

// Size returns the arena capacity.
func (h *Heap) Size() int { return len(h.mem) }

// ReadU8 loads one byte.
func (h *Heap) ReadU8(off int) uint8 {
	h.b.OnRead(off, 1)
	return h.mem[off]
}

// WriteU8 stores one byte.
func (h *Heap) WriteU8(off int, v uint8) { h.writeWord(off, 1, uint64(v)) }

// ReadU32 loads a little-endian uint32.
func (h *Heap) ReadU32(off int) uint32 {
	h.b.OnRead(off, 4)
	return binary.LittleEndian.Uint32(h.mem[off:])
}

// WriteU32 stores a little-endian uint32.
func (h *Heap) WriteU32(off int, v uint32) { h.writeWord(off, 4, uint64(v)) }

// ReadU64 loads a little-endian uint64.
func (h *Heap) ReadU64(off int) uint64 {
	h.b.OnRead(off, 8)
	return binary.LittleEndian.Uint64(h.mem[off:])
}

// WriteU64 stores a little-endian uint64.
func (h *Heap) WriteU64(off int, v uint64) { h.writeWord(off, 8, v) }

// ReadF64 loads a float64.
func (h *Heap) ReadF64(off int) float64 {
	return math.Float64frombits(h.ReadU64(off))
}

// WriteF64 stores a float64.
func (h *Heap) WriteF64(off int, v float64) {
	h.WriteU64(off, math.Float64bits(v))
}

// ReadBytes returns a read-only view of [off, off+n), charging one bulk read.
func (h *Heap) ReadBytes(off, n int) []byte {
	h.b.OnRead(off, n)
	return h.mem[off : off+n]
}

// WriteBytes stores a buffer.
func (h *Heap) WriteBytes(off int, src []byte) {
	h.b.OnWrite(off, len(src))
	h.b.Write(off, src)
}

// Zero clears [off, off+n): one Write of n zero bytes, taken from a buffer
// every heap shares, since Write never mutates its source.
func (h *Heap) Zero(off, n int) {
	h.b.OnWrite(off, n)
	h.b.Write(off, zeros(n))
}

// zeroBuf is the read-only buffer of zero bytes Zero writes from, grown to
// the largest length any heap has cleared.
var zeroBuf atomic.Pointer[[]byte]

// zeros returns n zero bytes that no one may write to.
func zeros(n int) []byte {
	for {
		p := zeroBuf.Load()
		if p != nil && len(*p) >= n {
			return (*p)[:n]
		}
		b := make([]byte, n)
		if zeroBuf.CompareAndSwap(p, &b) {
			return b
		}
	}
}
