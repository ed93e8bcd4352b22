// Package appbase provides the shared persistent-state plumbing of the
// mini-applications (LULESH, HPCCG, CoMD): named float64 arrays allocated
// from a container, plus an iteration counter, all reachable through the
// allocator's root array so a recovered process re-attaches with nothing but
// the backend handle — the paper's "replace memory allocation functions and
// add checkpoint logic" porting recipe (§5.2.2). It also gives a rank its
// backend by system name (rank.go): Format a fresh one, Recover one with its
// peers after a crash; every system then checkpoints through mpi.Checkpoint.
package appbase

import (
	"errors"
	"fmt"

	"libcrpm/internal/alloc"
	"libcrpm/internal/ckpt"
	"libcrpm/internal/heap"
)

// Magic identifies an app state header.
const Magic uint64 = 0x4352504d41505053 // "CRPMAPPS"

// State is the persistent state of one rank of a mini-app.
type State struct {
	h   *heap.Heap
	a   *alloc.Allocator
	hdr int
	n   int // arrays
}

const (
	shMagic = 0
	shIter  = 8
	shNArr  = 16
	shArr   = 24 // array offsets, 8 bytes each, then per-array lengths
)

// New formats a backend heap with an allocator and allocates the named
// arrays (lengths in elements). Root slot 0 points at the header.
func New(b ckpt.Backend, lengths []int) (*State, error) {
	if len(lengths) == 0 {
		return nil, errors.New("appbase: no arrays requested")
	}
	h := heap.New(b)
	a, err := alloc.Format(h)
	if err != nil {
		return nil, err
	}
	hdr, err := a.Alloc(shArr + 16*len(lengths))
	if err != nil {
		return nil, err
	}
	s := &State{h: h, a: a, hdr: hdr, n: len(lengths)}
	h.WriteU64(hdr+shMagic, Magic)
	h.WriteU64(hdr+shIter, 0)
	h.WriteU64(hdr+shNArr, uint64(len(lengths)))
	for i, n := range lengths {
		off, err := a.AllocZero(8 * n)
		if err != nil {
			return nil, fmt.Errorf("appbase: array %d (%d elements): %w", i, n, err)
		}
		h.WriteU64(hdr+shArr+16*i, uint64(off))
		h.WriteU64(hdr+shArr+16*i+8, uint64(n))
	}
	a.SetRoot(0, uint64(hdr))
	return s, nil
}

// Attach re-opens the state of a recovered backend and validates the
// expected array lengths.
func Attach(b ckpt.Backend, lengths []int) (*State, error) {
	h := heap.New(b)
	a, err := alloc.Open(h)
	if err != nil {
		return nil, err
	}
	hdr := int(a.Root(0))
	if hdr == 0 {
		return nil, errors.New("appbase: no state header in root slot 0")
	}
	if got := h.ReadU64(hdr + shMagic); got != Magic {
		return nil, fmt.Errorf("appbase: bad header magic %#x", got)
	}
	if got := int(h.ReadU64(hdr + shNArr)); got != len(lengths) {
		return nil, fmt.Errorf("appbase: %d arrays on heap, expected %d", got, len(lengths))
	}
	s := &State{h: h, a: a, hdr: hdr, n: len(lengths)}
	for i, n := range lengths {
		if got := int(h.ReadU64(hdr + shArr + 16*i + 8)); got != n {
			return nil, fmt.Errorf("appbase: array %d has %d elements, expected %d", i, got, n)
		}
	}
	return s, nil
}

// Heap exposes the instrumented heap.
func (s *State) Heap() *heap.Heap { return s.h }

// Allocator exposes the allocator (for app-specific extra state).
func (s *State) Allocator() *alloc.Allocator { return s.a }

// Iter returns the persisted iteration counter.
func (s *State) Iter() int { return int(s.h.ReadU64(s.hdr + shIter)) }

// SetIter stores the iteration counter (instrumented, so it is part of the
// checkpoint).
func (s *State) SetIter(i int) { s.h.WriteU64(s.hdr+shIter, uint64(i)) }

func (s *State) arrayOff(arr int) int {
	if arr < 0 || arr >= s.n {
		panic(fmt.Sprintf("appbase: array %d out of range", arr))
	}
	return int(s.h.ReadU64(s.hdr + shArr + 16*arr))
}

// Len returns an array's element count.
func (s *State) Len(arr int) int {
	if arr < 0 || arr >= s.n {
		panic(fmt.Sprintf("appbase: array %d out of range", arr))
	}
	return int(s.h.ReadU64(s.hdr + shArr + 16*arr + 8))
}

// Array returns a handle with cached base offset for tight loops.
type Array struct {
	h    *heap.Heap
	base int
	n    int
}

// Array opens a handle on array arr.
func (s *State) Array(arr int) Array {
	return Array{h: s.h, base: s.arrayOff(arr), n: s.Len(arr)}
}

// Len returns the element count.
func (a Array) Len() int { return a.n }

// Get loads element i.
func (a Array) Get(i int) float64 {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("appbase: index %d out of [0,%d)", i, a.n))
	}
	return a.h.ReadF64(a.base + 8*i)
}

// Set stores element i through the instrumented write path.
func (a Array) Set(i int, v float64) {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("appbase: index %d out of [0,%d)", i, a.n))
	}
	a.h.WriteF64(a.base+8*i, v)
}

// StateBytes returns the total persistent footprint of the arrays plus
// header (for the paper's storage-cost reporting, §5.6).
func (s *State) StateBytes() int {
	total := shArr + 16*s.n
	for i := 0; i < s.n; i++ {
		total += 8 * s.Len(i)
	}
	return total
}
