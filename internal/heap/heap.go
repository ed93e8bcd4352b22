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

	"libcrpm/internal/ckpt"
)

// wordBufs recycles the staging buffer of the fixed-width stores. Handing
// a stack array to Backend.Write — an interface call — would move it to the
// heap on every store; a field of Heap would race when application threads
// share one (core.Options.Concurrent).
var wordBufs = sync.Pool{New: func() any { return new([8]byte) }}

// Heap is the instrumented view of one backend arena.
type Heap struct {
	b   ckpt.Backend
	mem []byte
}

// New wraps a backend.
func New(b ckpt.Backend) *Heap {
	return &Heap{b: b, mem: b.Bytes()}
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
func (h *Heap) WriteU8(off int, v uint8) {
	buf := wordBufs.Get().(*[8]byte)
	buf[0] = v
	h.b.OnWrite(off, 1)
	h.b.Write(off, buf[:1])
	wordBufs.Put(buf)
}

// ReadU32 loads a little-endian uint32.
func (h *Heap) ReadU32(off int) uint32 {
	h.b.OnRead(off, 4)
	return binary.LittleEndian.Uint32(h.mem[off:])
}

// WriteU32 stores a little-endian uint32.
func (h *Heap) WriteU32(off int, v uint32) {
	buf := wordBufs.Get().(*[8]byte)
	binary.LittleEndian.PutUint32(buf[:4], v)
	h.b.OnWrite(off, 4)
	h.b.Write(off, buf[:4])
	wordBufs.Put(buf)
}

// ReadU64 loads a little-endian uint64.
func (h *Heap) ReadU64(off int) uint64 {
	h.b.OnRead(off, 8)
	return binary.LittleEndian.Uint64(h.mem[off:])
}

// WriteU64 stores a little-endian uint64.
func (h *Heap) WriteU64(off int, v uint64) {
	buf := wordBufs.Get().(*[8]byte)
	binary.LittleEndian.PutUint64(buf[:], v)
	h.b.OnWrite(off, 8)
	h.b.Write(off, buf[:])
	wordBufs.Put(buf)
}

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

// Zero clears [off, off+n).
func (h *Heap) Zero(off, n int) {
	h.b.OnWrite(off, n)
	h.b.Write(off, make([]byte, n))
}
