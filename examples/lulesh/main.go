// lulesh: fault-tolerant parallel shock hydrodynamics, the paper's Figure 3
// scenario — a multi-rank LULESH run checkpointing every five iterations
// through libcrpm's coordinated MPI protocol, killed mid-run and restarted.
// The demo verifies the resumed run finishes bit-identically to an
// uninterrupted one and reports the checkpoint overhead versus a run with
// checkpointing disabled.
package main

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"time"

	"libcrpm/internal/apps/lulesh"
	"libcrpm/internal/core"
	"libcrpm/internal/mpi"
	"libcrpm/internal/nvm"
	"libcrpm/internal/region"
)

const (
	ranks     = 4
	edge      = 10
	nzPerRank = 3
	target    = 30
	ckptEvery = 5
	crashAt   = 17
	heapSize  = 8 << 20
)

func cfg(rank int) lulesh.Config {
	return lulesh.Config{
		Edge: edge, NZLocal: nzPerRank, NZGlobal: nzPerRank * ranks,
		ZOffset: rank * nzPerRank, Blast: true,
	}
}

func containerOpts() core.Options {
	return mpi.ContainerOptions(region.Config{
		HeapSize: heapSize, SegmentSize: 256 << 10, BlockSize: 256, BackupRatio: 1,
	}, core.ModeBuffered)
}

// runWorld runs fn on every rank and exits on the first rank's failure.
func runWorld(fn func(c *mpi.Comm)) {
	if err := errors.Join(mpi.NewWorld(ranks).Run(fn)...); err != nil {
		log.Fatal(err)
	}
}

// run executes the app to `iters` iterations on fresh devices, with or
// without checkpointing, and returns final states + devices + sim time.
func run(iters int, checkpointing bool) ([][]byte, []*nvm.Device, time.Duration) {
	opts := containerOpts()
	l, err := region.NewLayout(opts.Region)
	if err != nil {
		log.Fatal(err)
	}
	devs := make([]*nvm.Device, ranks)
	states := make([][]byte, ranks)
	var maxTime time.Duration
	runWorld(func(c *mpi.Comm) {
		devs[c.Rank()] = nvm.NewDevice(l.DeviceSize())
		ctr, err := core.NewContainer(devs[c.Rank()], opts)
		if err != nil {
			c.Fail(err)
		}
		c.AttachClock(devs[c.Rank()].Clock())
		sim, err := lulesh.New(cfg(c.Rank()), c, ctr)
		if err != nil {
			c.Fail(err)
		}
		every := 0
		ckpt := func() error { return mpi.Checkpoint(c, ctr) }
		if checkpointing {
			every = ckptEvery
			if err := ckpt(); err != nil {
				c.Fail(err)
			}
		}
		if err := sim.Run(iters, every, ckpt); err != nil {
			c.Fail(err)
		}
		c.Barrier()
		if c.Rank() == 0 {
			maxTime = devs[0].Clock().Now()
		}
		buf := make([]byte, len(ctr.Bytes()))
		copy(buf, ctr.Bytes())
		states[c.Rank()] = buf
	})
	return states, devs, maxTime
}

func main() {
	fmt.Printf("LULESH %d^2 x %d, %d ranks, checkpoint every %d iterations\n",
		edge, nzPerRank*ranks, ranks, ckptEvery)

	// Reference: uninterrupted fault-tolerant run.
	want, _, tCkpt := run(target, true)
	_, _, tPlain := run(target, false)
	fmt.Printf("simulated time: %v without checkpointing, %v with (%.2f%% overhead)\n",
		tPlain, tCkpt, (float64(tCkpt)/float64(tPlain)-1)*100)

	// Crashed run: advance to iteration 17, then pull the plug.
	fmt.Printf("running again and killing all ranks at iteration %d...\n", crashAt)
	_, devs, _ := run(crashAt, true)
	rng := rand.New(rand.NewSource(2024))
	for _, d := range devs {
		d.Crash(rng)
	}

	// Restart: coordinated recovery to the last globally consistent epoch,
	// then resume to the target.
	opts := containerOpts()
	recovered := make([][]byte, ranks)
	var recoveredIter int
	runWorld(func(c *mpi.Comm) {
		ctr, err := mpi.OpenAndRecover(c, devs[c.Rank()], opts)
		if err != nil {
			c.Fail(err)
		}
		sim, err := lulesh.Attach(cfg(c.Rank()), c, ctr)
		if err != nil {
			c.Fail(err)
		}
		if c.Rank() == 0 {
			recoveredIter = sim.Iter()
		}
		if err := sim.Run(target, ckptEvery, func() error { return mpi.Checkpoint(c, ctr) }); err != nil {
			c.Fail(err)
		}
		c.Barrier()
		buf := make([]byte, len(ctr.Bytes()))
		copy(buf, ctr.Bytes())
		recovered[c.Rank()] = buf
	})
	fmt.Printf("recovered at iteration %d (last coordinated checkpoint), resumed to %d\n",
		recoveredIter, target)

	for r := 0; r < ranks; r++ {
		if !bytes.Equal(recovered[r], want[r]) {
			log.Fatalf("rank %d: resumed state differs from the uninterrupted run", r)
		}
	}
	fmt.Println("resumed run is bit-identical to the uninterrupted run ✓")
}
