// Package apptest provides the shared crash-equality harness for the
// mini-application tests: a recovered-and-resumed run must finish with
// bit-identical state to an uninterrupted run, under each system of the
// paper's parallel experiments (appbase.Buffered, appbase.Default and
// appbase.FTI), formatted and recovered by appbase.
package apptest

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"libcrpm/internal/apps/appbase"
	"libcrpm/internal/ckpt"
	"libcrpm/internal/mpi"
)

// Factory builds a fresh or recovered app instance on a backend.
type Factory struct {
	// New creates a fresh simulation.
	New func(c *mpi.Comm, b ckpt.Backend) (appbase.Runner, error)
	// Attach re-opens a recovered simulation.
	Attach func(c *mpi.Comm, b ckpt.Backend) (appbase.Runner, error)
	// HeapSize is the per-rank container capacity.
	HeapSize int
}

// CrashEquality runs the app twice under every system: once uninterrupted,
// once crashed mid-run (after crashAt iterations, mid-epoch) and recovered.
// The final per-rank states must match byte for byte.
func CrashEquality(t *testing.T, f Factory, ranks, target, ckptEvery, crashAt int) {
	t.Helper()
	for _, sys := range []string{appbase.Buffered, appbase.Default, appbase.FTI} {
		t.Run(sys, func(t *testing.T) {
			want := freshRun(t, f, sys, ranks, target, ckptEvery)
			defer closeAll(want)
			if t.Failed() {
				return
			}
			// Crashed run: advance to crashAt, crash all devices, recover,
			// resume to target.
			crashed := freshRun(t, f, sys, ranks, crashAt, ckptEvery)
			defer closeAll(crashed)
			if t.Failed() {
				return
			}
			rng := rand.New(rand.NewSource(99))
			for _, b := range crashed {
				b.Device().Crash(rng)
			}
			got := make([][]byte, ranks)
			runWorld(t, ranks, func(c *mpi.Comm) {
				b, err := appbase.Recover(c, sys, f.HeapSize, crashed[c.Rank()].Device())
				if err != nil {
					c.Fail(fmt.Errorf("reopen: %w", err))
				}
				sim, err := f.Attach(c, b)
				if err != nil {
					c.Fail(fmt.Errorf("attach: %w", err))
				}
				resumed := sim.State().Iter()
				if resumed > crashAt {
					c.Fail(fmt.Errorf("resumed at iteration %d > crash point %d", resumed, crashAt))
				}
				if err := sim.Run(target, ckptEvery, func() error { return mpi.Checkpoint(c, b) }); err != nil {
					c.Fail(fmt.Errorf("resume: %w", err))
				}
				got[c.Rank()] = bytes.Clone(b.Bytes())
			})
			if t.Failed() {
				return
			}
			for r := 0; r < ranks; r++ {
				if w := want[r].Bytes(); !bytes.Equal(got[r], w) {
					t.Fatalf("rank %d: recovered-and-resumed state differs from uninterrupted run (first diff at %d)",
						r, firstDiff(got[r], w))
				}
			}
		})
	}
}

// freshRun formats a backend of sys for every rank, persists the app's
// initial state and runs it to iteration target, returning the backends.
func freshRun(t *testing.T, f Factory, sys string, ranks, target, ckptEvery int) []ckpt.Backend {
	t.Helper()
	bs := make([]ckpt.Backend, ranks)
	runWorld(t, ranks, func(c *mpi.Comm) {
		b, err := appbase.Format(sys, f.HeapSize)
		if err != nil {
			c.Fail(err)
		}
		bs[c.Rank()] = b
		sim, err := f.New(c, b)
		if err != nil {
			c.Fail(err)
		}
		ckpt := func() error { return mpi.Checkpoint(c, b) }
		if err := ckpt(); err != nil {
			c.Fail(err)
		}
		if err := sim.Run(target, ckptEvery, ckpt); err != nil {
			c.Fail(err)
		}
	})
	return bs
}

// closeAll closes every backend's device. Until then the devices stay
// reachable, so no leak guard unmaps memory a slice of Bytes still reads.
func closeAll(bs []ckpt.Backend) {
	for _, b := range bs {
		if b != nil {
			b.Device().Close()
		}
	}
}

// runWorld runs fn on a world of ranks and reports each rank's failure.
func runWorld(t *testing.T, ranks int, fn func(c *mpi.Comm)) {
	t.Helper()
	for r, err := range mpi.NewWorld(ranks).Run(fn) {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
