package mpi_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"libcrpm/internal/core"
	"libcrpm/internal/mpi"
	"libcrpm/internal/nvm"
	"libcrpm/internal/region"
	"libcrpm/internal/replica"
)

// TestAbortedIncrementalCutShipsNothing is the satellite torn-delta test:
// a world abort lands inside the Begin/Step window of a coordinated
// incremental cut — one rank has even completed a local commit — and
// under the ship-at-commit discipline the aborted epoch's delta must
// never reach a secondary. Coordinated recovery rolls the ahead rank back
// one epoch (the incremental pipeline's rollback window holds) and every
// replica set still answers promotion queries with the last epoch that
// globally committed.
func TestAbortedIncrementalCutShipsNothing(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeDefault, core.ModeBuffered} {
		const ranks = 3
		reg := region.Config{HeapSize: 8 * 4096, SegmentSize: 4096, BlockSize: 256, BackupRatio: 1}
		opts := mpi.ContainerOptions(reg, mode)
		l, err := region.NewLayout(reg)
		if err != nil {
			t.Fatal(err)
		}
		devs := make([]*nvm.Device, ranks)
		groups := make([]*replica.Group, ranks)

		write := func(ctr *core.Container, off int, v uint64) {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v)
			ctr.OnWrite(off, 8)
			ctr.Write(off, b[:])
		}

		errs := mpi.NewWorld(ranks).Run(func(c *mpi.Comm) {
			rank := c.Rank()
			devs[rank] = nvm.NewDevice(l.DeviceSize())
			ctr, err := core.NewContainer(devs[rank], opts)
			if err != nil {
				c.Fail(err)
			}
			g, err := replica.NewGroup(rank, replica.Config{Replicas: 2, Opts: opts, DeviceSize: l.DeviceSize()})
			if err != nil {
				c.Fail(err)
			}
			groups[rank] = g
			// Epochs 1 and 2 commit globally; their deltas ship after the
			// commit barrier and install everywhere.
			for e := uint64(1); e <= 2; e++ {
				write(ctr, 8*rank, e*1000+uint64(rank))
				d, err := g.Capture(ctr)
				if err != nil {
					c.Fail(fmt.Errorf("epoch %d: %w", e, err))
				}
				if err := mpi.CheckpointIncremental(c, ctr, 512); err != nil {
					c.Fail(fmt.Errorf("epoch %d: %w", e, err))
				}
				g.Ship(d, 0)
				if err := g.DeliverAll(); err != nil {
					c.Fail(fmt.Errorf("epoch %d: %w", e, err))
				}
			}
			// Epoch 3: the delta is captured at the boundary, but the world
			// aborts inside the Begin/Step window, so it must never ship.
			write(ctr, 8*rank, 3000+uint64(rank))
			// The pending delta the server would hold back.
			if _, err := g.Capture(ctr); err != nil {
				c.Fail(err)
			}
			switch rank {
			case 0:
				// Races ahead through a full local pipeline: committed epoch
				// 3, but the commit barrier never completes, so the discipline
				// forbids shipping and recovery must roll this rank back.
				if err := ctr.CheckpointBegin(); err != nil {
					c.Fail(err)
				}
				if _, err := ctr.CheckpointStep(-1); err != nil {
					c.Fail(err)
				}
				if err := ctr.CheckpointCommit(); err != nil {
					c.Fail(err)
				}
				if err := ctr.CheckpointFinish(); err != nil {
					c.Fail(err)
				}
				c.Barrier() // parks; unwinds when rank 1 fails the world
			case 1:
				// Crashes on a device primitive mid-quantum.
				if err := ctr.CheckpointBegin(); err != nil {
					c.Fail(err)
				}
				// The failure detector fails the world to unpark the
				// survivors.
				devs[rank].FailAfter(1) // the quantum takes 5 (2 buffered)
				defer mpi.FailOnCrash(c)
				_, _ = ctr.CheckpointStep(512)
				c.Fail(errors.New("no crash within 1 primitive"))
			case 2:
				// Mid-drain: one bounded quantum done, parked for the next
				// coordination round.
				if err := ctr.CheckpointBegin(); err != nil {
					c.Fail(err)
				}
				if _, err := ctr.CheckpointStep(512); err != nil {
					c.Fail(err)
				}
				c.Barrier()
				t.Error("rank 2 passed the barrier of an aborted cut")
			}
		})

		for r, err := range errs {
			if _, crash := err.(nvm.InjectedCrash); (r == 1 && !crash) || (r != 1 && err != nil) {
				t.Fatalf("mode %v rank %d: error %v, want an injected crash on rank 1 alone", mode, r, err)
			}
		}

		// Global power failure, then inspect the divergence window: rank 0
		// committed the aborted epoch locally, the others did not.
		rng := rand.New(rand.NewSource(55))
		for _, d := range devs {
			d.Crash(rng)
		}
		ctrs := make([]*core.Container, ranks)
		for r, d := range devs {
			ctr, err := core.OpenContainerDeferRecovery(d, opts)
			if err != nil {
				t.Fatalf("mode %v rank %d: %v", mode, r, err)
			}
			ctrs[r] = ctr
		}
		if e0, e1 := ctrs[0].CommittedEpoch(), ctrs[1].CommittedEpoch(); e0 != 3 || e1 != 2 {
			t.Fatalf("mode %v: epochs before recovery = %d,%d, want the [2,3] window", mode, e0, e1)
		}

		w2 := mpi.NewWorld(ranks)
		w2.Run(func(c *mpi.Comm) {
			if err := mpi.Recover(c, ctrs[c.Rank()]); err != nil {
				t.Errorf("rank %d recover: %v", c.Rank(), err)
			}
		})
		for r, ctr := range ctrs {
			// The rollback window held: everyone lands on epoch 2 with its
			// exact state, the aborted epoch-3 writes gone.
			if got := ctr.CommittedEpoch(); got != 2 {
				t.Errorf("mode %v rank %d: recovered to epoch %d, want 2", mode, r, got)
			}
			got := binary.LittleEndian.Uint64(ctr.Bytes()[8*r:])
			if want := 2000 + uint64(r); got != want {
				t.Errorf("mode %v rank %d: value %d, want %d", mode, r, got, want)
			}
			// No secondary saw any part of the aborted cut: every replica
			// sits exactly at epoch 2, and promotion would resume there.
			g := groups[r]
			for i := 0; i < g.Len(); i++ {
				sec := g.Sec(i)
				if sec.Installed() != 2 {
					t.Errorf("mode %v rank %d replica %d: installed %d, want 2", mode, r, i, sec.Installed())
				}
				sv := binary.LittleEndian.Uint64(sec.Container().Bytes()[8*r:])
				if want := 2000 + uint64(r); sv != want {
					t.Errorf("mode %v rank %d replica %d: torn value %d, want %d", mode, r, i, sv, want)
				}
			}
			prom, err := g.Promotion()
			if err != nil {
				t.Errorf("mode %v rank %d: %v", mode, r, err)
				continue
			}
			if got := prom.CommittedEpoch(); got != 2 {
				t.Errorf("mode %v rank %d: promotion offers epoch %d, want 2", mode, r, got)
			}
		}
	}
}
