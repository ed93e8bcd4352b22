// Package sched is the deterministic parallel sweep engine for the
// experiment harness, the crash-torture driver, and the baseline crash
// sweeps: a bounded worker pool for embarrassingly parallel simulation
// cells, each of which owns its simulated nvm.Device and shares nothing
// with its neighbours.
//
// Three properties make a parallel sweep byte-identical to the serial one:
//
//   - Ordered reduction. Results are returned in submission order, never in
//     completion order, so every Table, CSV, and violation report is
//     assembled exactly as a serial loop would have assembled it.
//   - Per-cell panic capture. A panic inside a cell (an injected
//     nvm.InjectedCrash that escaped, a protocol bug) is converted into a
//     typed *PanicError result for that cell instead of killing the pool;
//     the caller decides whether to surface it as an error, a violation
//     row, or a re-panic.
//   - Per-cell seeding. SeedFor derives a cell's rng seed from a stable
//     label (figure, row, crash index) rather than from a shared *rand.Rand
//     consumed in loop order, so the cell's random stream is a function of
//     its identity, not of the execution interleaving.
//
// The simulated devices themselves stay single-threaded: parallelism lives
// strictly at the sweep layer, one goroutine per in-flight cell.
package sched

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Options configures one sweep.
type Options struct {
	// Workers bounds the number of cells in flight. <= 0 means
	// runtime.GOMAXPROCS(0); 1 runs the cells inline on the calling
	// goroutine (the serial path, same semantics, no pool).
	Workers int
	// Progress, if non-nil, is invoked after every completed cell with the
	// number of cells finished so far and the total. done is strictly
	// increasing from 1 to total; calls are serialized. The hook is for
	// CLI progress meters and must not depend on which cell finished.
	Progress func(done, total int)
}

// workers resolves the effective pool size for n cells.
func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// PanicError is the typed cell result a captured panic is converted into.
// If the panic value is an error (e.g. nvm.InjectedCrash), Unwrap exposes
// it to errors.As / errors.Is.
type PanicError struct {
	// Index is the cell that panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack at the point of the panic.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: cell %d panicked: %v", e.Index, e.Value)
}

// Unwrap exposes an error panic value to errors.As chains.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// MapErr runs fn(i) for every i in [0, n) under at most opt.Workers
// concurrent cells and returns the results in index order.
//
// Error semantics mirror a serial loop that stops at its first error: the
// returned error is the one from the lowest-indexed failing cell, and every
// result with a smaller index is valid. Cells with a larger index than an
// already-failed cell may be skipped (their results are zero values) — a
// serial loop would never have run them. A panic inside fn is captured as a
// *PanicError for that cell.
func MapErr[T any](n int, opt Options, fn func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, nil
	}
	if opt.workers(n) == 1 {
		for i := 0; i < n; i++ {
			v, err := runCell(i, fn)
			results[i] = v
			if opt.Progress != nil {
				opt.Progress(i+1, n)
			}
			if err != nil {
				return results, err
			}
		}
		return results, nil
	}

	errAt := make([]error, n)
	var (
		next    atomic.Int64 // next cell index to claim
		minFail atomic.Int64 // lowest failed index so far (n = none)
		done    int          // completed cells, guarded by mu
		mu      sync.Mutex   // serializes Progress
		wg      sync.WaitGroup
	)
	minFail.Store(int64(n))
	finish := func() {
		if opt.Progress == nil {
			return
		}
		mu.Lock()
		done++
		opt.Progress(done, n)
		mu.Unlock()
	}
	for w := 0; w < opt.workers(n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				// A lower-indexed cell already failed: the caller stops
				// there, so this cell's result is dead — skip the work. A
				// cell below the failure must still run to completion.
				if int64(i) > minFail.Load() {
					finish()
					continue
				}
				v, err := runCell(i, fn)
				results[i] = v
				if err != nil {
					errAt[i] = err
					for {
						cur := minFail.Load()
						if int64(i) >= cur || minFail.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
				}
				finish()
			}
		}()
	}
	wg.Wait()
	if f := int(minFail.Load()); f < n {
		return results, errAt[f]
	}
	return results, nil
}

// Map runs fn(i) for every i in [0, n) and returns the results in index
// order. If any cell panicked, Map re-panics with the lowest-indexed cell's
// panic value after the pool has drained — the same panic a serial loop
// would have raised first, without killing in-flight neighbours mid-cell.
func Map[T any](n int, opt Options, fn func(i int) T) []T {
	results, err := MapErr(n, opt, func(i int) (T, error) {
		return fn(i), nil
	})
	if err != nil {
		var pe *PanicError
		if errors.As(err, &pe) {
			panic(pe.Value)
		}
		panic(err) // unreachable: the wrapped fn never returns an error
	}
	return results
}

// runCell invokes one cell with panic capture.
func runCell[T any](i int, fn func(i int) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// SeedFor derives a deterministic rng seed from a cell's identity label
// (FNV-1a over the label bytes). Cells that need randomness hash their
// stable identity — "fig7/LMC/Balanced", "torture/default/seeded/417" —
// instead of drawing from a loop-shared source, so the stream each cell
// sees is independent of sweep order and worker count.
//
// The mapping is part of the reproducibility contract: pinned experiment
// outputs depend on it, so it must never change.
func SeedFor(label string) int64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	return int64(h.Sum64())
}
