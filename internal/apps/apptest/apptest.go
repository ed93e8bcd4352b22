// Package apptest provides the shared crash-equality harness for the
// mini-application tests: a recovered-and-resumed run must finish with
// bit-identical state to an uninterrupted run, under both libcrpm modes and
// the FTI baseline.
package apptest

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"libcrpm/internal/apps/appbase"
	"libcrpm/internal/baselines/fti"
	"libcrpm/internal/ckpt"
	"libcrpm/internal/core"
	"libcrpm/internal/mpi"
	"libcrpm/internal/nvm"
	"libcrpm/internal/region"
)

// Runner is the common mini-app surface.
type Runner interface {
	Run(target, ckptEvery int, ckpt func() error) error
	State() *appbase.State
}

// Factory builds a fresh or recovered app instance on a backend.
type Factory struct {
	// New creates a fresh simulation.
	New func(c *mpi.Comm, b ckpt.Backend) (Runner, error)
	// Attach re-opens a recovered simulation.
	Attach func(c *mpi.Comm, b ckpt.Backend) (Runner, error)
	// HeapSize is the per-rank container capacity.
	HeapSize int
}

// Scenario names a backend arrangement under test.
type Scenario struct {
	Name string
	// fresh creates rank backends; reopen recovers them from the same
	// devices after a crash.
	fresh  func(c *mpi.Comm, heap int, devs []*nvm.Device) (ckpt.Backend, func() error, error)
	reopen func(c *mpi.Comm, heap int, devs []*nvm.Device) (ckpt.Backend, error)
}

func regCfg(heap int) region.Config {
	return region.Config{HeapSize: heap, SegmentSize: 64 << 10, BlockSize: 256, BackupRatio: 1}
}

// Scenarios returns the three backend arrangements the paper's parallel
// experiments use.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name: "crpm-buffered",
			fresh: func(c *mpi.Comm, heap int, devs []*nvm.Device) (ckpt.Backend, func() error, error) {
				opts := mpi.ContainerOptions(regCfg(heap), core.ModeBuffered)
				l, err := region.NewLayout(opts.Region)
				if err != nil {
					return nil, nil, err
				}
				devs[c.Rank()] = nvm.NewDevice(l.DeviceSize())
				ctr, err := core.NewContainer(devs[c.Rank()], opts)
				if err != nil {
					return nil, nil, err
				}
				return ctr, func() error { return mpi.Checkpoint(c, ctr) }, nil
			},
			reopen: func(c *mpi.Comm, heap int, devs []*nvm.Device) (ckpt.Backend, error) {
				opts := mpi.ContainerOptions(regCfg(heap), core.ModeBuffered)
				return mpi.OpenAndRecover(c, devs[c.Rank()], opts)
			},
		},
		{
			Name: "crpm-default",
			fresh: func(c *mpi.Comm, heap int, devs []*nvm.Device) (ckpt.Backend, func() error, error) {
				opts := mpi.ContainerOptions(regCfg(heap), core.ModeDefault)
				l, err := region.NewLayout(opts.Region)
				if err != nil {
					return nil, nil, err
				}
				devs[c.Rank()] = nvm.NewDevice(l.DeviceSize())
				ctr, err := core.NewContainer(devs[c.Rank()], opts)
				if err != nil {
					return nil, nil, err
				}
				return ctr, func() error { return mpi.Checkpoint(c, ctr) }, nil
			},
			reopen: func(c *mpi.Comm, heap int, devs []*nvm.Device) (ckpt.Backend, error) {
				opts := mpi.ContainerOptions(regCfg(heap), core.ModeDefault)
				return mpi.OpenAndRecover(c, devs[c.Rank()], opts)
			},
		},
		{
			Name: "fti",
			fresh: func(c *mpi.Comm, heap int, devs []*nvm.Device) (ckpt.Backend, func() error, error) {
				b, err := fti.New(fti.Config{HeapSize: heap})
				if err != nil {
					return nil, nil, err
				}
				devs[c.Rank()] = b.Device()
				return b, func() error {
					if err := b.Checkpoint(); err != nil {
						return err
					}
					c.Barrier()
					return nil
				}, nil
			},
			reopen: func(c *mpi.Comm, heap int, devs []*nvm.Device) (ckpt.Backend, error) {
				b, err := openFTIDeferred(fti.Config{HeapSize: heap}, devs[c.Rank()])
				if err != nil {
					return nil, err
				}
				if err := mpi.Recover(c, b); err != nil {
					return nil, err
				}
				return b, nil
			},
		},
	}
}

// openFTIDeferred opens an FTI backend without recovering (mpi.Recover
// decides the epoch first). fti.Open recovers eagerly, which is harmless —
// recovery does not destroy either slot — so this simply wraps it.
func openFTIDeferred(cfg fti.Config, dev *nvm.Device) (*fti.Backend, error) {
	return fti.Open(cfg, dev)
}

// CrashEquality runs the app twice on every scenario: once uninterrupted,
// once crashed mid-run (after crashAt iterations, mid-epoch) and recovered.
// The final per-rank states must match byte for byte.
func CrashEquality(t *testing.T, f Factory, ranks, target, ckptEvery, crashAt int) {
	t.Helper()
	for _, sc := range Scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			want := referenceRun(t, f, sc, ranks, target, ckptEvery)

			// Crashed run: advance to crashAt, crash all devices, recover,
			// resume to target.
			devs := make([]*nvm.Device, ranks)
			runWorld(t, ranks, func(c *mpi.Comm) {
				b, ckpt, err := sc.fresh(c, f.HeapSize, devs)
				if err != nil {
					c.Fail(err)
				}
				sim, err := f.New(c, b)
				if err != nil {
					c.Fail(err)
				}
				if err := ckpt(); err != nil { // persist the initial state
					c.Fail(err)
				}
				if err := sim.Run(crashAt, ckptEvery, ckpt); err != nil {
					c.Fail(err)
				}
			})
			if t.Failed() {
				return
			}
			rng := rand.New(rand.NewSource(99))
			for _, d := range devs {
				d.Crash(rng)
			}
			got := make([][]byte, ranks)
			runWorld(t, ranks, func(c *mpi.Comm) {
				b, err := sc.reopen(c, f.HeapSize, devs)
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
				ckpt := func() error { return nil }
				switch bk := b.(type) {
				case *core.Container:
					ckpt = func() error { return mpi.Checkpoint(c, bk) }
				case *fti.Backend:
					ckpt = func() error {
						if err := bk.Checkpoint(); err != nil {
							return err
						}
						c.Barrier()
						return nil
					}
				}
				if err := sim.Run(target, ckptEvery, ckpt); err != nil {
					c.Fail(fmt.Errorf("resume: %w", err))
				}
				buf := make([]byte, len(b.Bytes()))
				copy(buf, b.Bytes())
				got[c.Rank()] = buf
			})
			if t.Failed() {
				return
			}
			for r := 0; r < ranks; r++ {
				if !bytes.Equal(got[r], want[r]) {
					t.Fatalf("rank %d: recovered-and-resumed state differs from uninterrupted run (first diff at %d)",
						r, firstDiff(got[r], want[r]))
				}
			}
		})
	}
}

func referenceRun(t *testing.T, f Factory, sc Scenario, ranks, target, ckptEvery int) [][]byte {
	t.Helper()
	devs := make([]*nvm.Device, ranks)
	want := make([][]byte, ranks)
	runWorld(t, ranks, func(c *mpi.Comm) {
		b, ckpt, err := sc.fresh(c, f.HeapSize, devs)
		if err != nil {
			c.Fail(err)
		}
		sim, err := f.New(c, b)
		if err != nil {
			c.Fail(err)
		}
		if err := ckpt(); err != nil {
			c.Fail(err)
		}
		if err := sim.Run(target, ckptEvery, ckpt); err != nil {
			c.Fail(err)
		}
		buf := make([]byte, len(b.Bytes()))
		copy(buf, b.Bytes())
		want[c.Rank()] = buf
	})
	return want
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
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
