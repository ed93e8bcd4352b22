// Package pds provides the periodically persistent data structures of the
// paper's evaluation (§5.2.1): an unordered_map (open-chaining hash table)
// and a map (red-black tree), both written against the instrumented heap so
// that a single choice — the checkpoint backend — turns them into
// recoverable structures under any of the evaluated systems, mirroring the
// paper's one-line CrpmAllocator swap.
//
// All node references are heap offsets (0 is null); the structures are
// position-independent and recover by re-reading their root offsets from the
// allocator's root array.
package pds

import (
	"errors"
	"fmt"

	"libcrpm/internal/alloc"
)

// ErrUnsupportedOp is wrapped by SupportsOp for operations a backend
// cannot execute (Dalí's Delete and Scan). Layers that would otherwise
// misread the in-band failure values — Delete's false, Scan's nil — as
// ordinary results (the replica read router, workload audits) branch on
// this instead.
var ErrUnsupportedOp = errors.New("pds: unsupported operation")

// Op names a KV operation for support queries.
type Op int

// The KV operations a backend may declare unsupported.
const (
	OpPut Op = iota
	OpGet
	OpDelete
	OpScan
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpPut:
		return "put"
	case OpGet:
		return "get"
	case OpDelete:
		return "delete"
	case OpScan:
		return "scan"
	default:
		return "op(?)"
	}
}

// OpSupport is optionally implemented by KV backends with operation gaps.
// SupportsOp returns nil if the operation executes faithfully, or an
// error wrapping ErrUnsupportedOp if it is a documented no-op.
type OpSupport interface {
	SupportsOp(op Op) error
}

// Supports reports whether kv executes op faithfully: backends that do
// not implement OpSupport support everything.
func Supports(kv KV, op Op) error {
	if s, ok := kv.(OpSupport); ok {
		return s.SupportsOp(op)
	}
	return nil
}

// Pair is one key-value entry returned by Scan.
type Pair struct {
	Key   uint64
	Value uint64
}

// KV is the key-value interface the workload driver and the sharded service
// run against. The Dalí baseline implements it natively; HashMap and RBMap
// implement it over any checkpoint backend.
type KV interface {
	// Put inserts or updates a key.
	Put(key, value uint64) error
	// Get returns the value for a key.
	Get(key uint64) (uint64, bool)
	// Delete removes a key, reporting whether it was present. Backends
	// without delete support (Dalí) return false and leave the store
	// unchanged; see their package documentation.
	Delete(key uint64) bool
	// Scan returns up to n pairs with key >= start. Ordered structures
	// (RBMap) return them in ascending key order; unordered ones (HashMap)
	// return a best-effort unordered selection. Backends without scan
	// support (Dalí) return nil.
	Scan(start uint64, n int) []Pair
	// Len returns the number of live keys.
	Len() int
}

// Kind names one of the two allocator-backed structures of §5.2.1.
type Kind string

// The paper's names for them.
const (
	KindHashMap Kind = "unordered_map"
	KindRBMap   Kind = "map"
)

// rootedKV is a KV that knows the heap offset it reopens from.
type rootedKV interface {
	KV
	Root() int
}

// Bind is the one place a structure's kind becomes a KV inside an allocator:
// reopened from root or, with root 0 (where no structure can live), created
// fresh, a hash map over the given buckets.
func Bind(a *alloc.Allocator, kind Kind, root, buckets int) (rootedKV, error) {
	switch {
	case kind == KindHashMap && root == 0:
		return NewHashMap(a, buckets)
	case kind == KindHashMap:
		return OpenHashMap(a, root)
	case kind == KindRBMap && root == 0:
		return NewRBMap(a)
	case kind == KindRBMap:
		return OpenRBMap(a, root)
	}
	return nil, fmt.Errorf("pds: unknown structure %q", kind)
}
