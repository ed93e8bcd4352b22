package harness

import (
	"fmt"
	"math/rand"
	"time"

	"libcrpm/internal/apps/appbase"
	"libcrpm/internal/apps/comd"
	"libcrpm/internal/apps/hpccg"
	"libcrpm/internal/apps/lulesh"
	"libcrpm/internal/baselines/fti"
	"libcrpm/internal/ckpt"
	"libcrpm/internal/core"
	"libcrpm/internal/mpi"
	"libcrpm/internal/nvm"
	"libcrpm/internal/sched"
)

// appSpec builds an app for a rank.
type appSpec struct {
	name string
	new  func(c *mpi.Comm, edge, ranks int, b ckpt.Backend) (appbase.Runner, error)
}

func luleshCfg(rank, ranks, edge int) lulesh.Config {
	nzLocal := edge / ranks
	if nzLocal < 1 {
		nzLocal = 1
	}
	return lulesh.Config{
		Edge: edge, NZLocal: nzLocal, NZGlobal: nzLocal * ranks,
		ZOffset: rank * nzLocal, Blast: true,
	}
}

// luleshSpec is the app of the recovery and storage studies as well.
var luleshSpec = appSpec{"LULESH", func(c *mpi.Comm, edge, ranks int, b ckpt.Backend) (appbase.Runner, error) {
	return lulesh.New(luleshCfg(c.Rank(), ranks, edge), c, b)
}}

func appSpecs() []appSpec {
	return []appSpec{
		luleshSpec,
		{"HPCCG", func(c *mpi.Comm, edge, ranks int, b ckpt.Backend) (appbase.Runner, error) {
			nz := edge / ranks
			if nz < 1 {
				nz = 1
			}
			return hpccg.New(hpccg.Config{NX: edge, NY: edge, NZLocal: nz}, c, b)
		}},
		{"CoMD", func(c *mpi.Comm, edge, ranks int, b ckpt.Backend) (appbase.Runner, error) {
			cps := edge / 3
			if cps < 2 {
				cps = 2
			}
			return comd.New(comd.Config{CellsPerSide: cps}, c, b)
		}},
	}
}

// appResult is one measured parallel run.
type appResult struct {
	simTime    time.Duration
	backends   []ckpt.Backend // per rank, nil where formatting failed
	stateBytes []int          // per rank, allocator high-water mark
	err        error
}

// close hands every rank's device back.
func (r appResult) close() {
	for _, b := range r.backends {
		if b != nil {
			b.Device().Close()
		}
	}
}

// runParallelApp executes one app with the given checkpoint system: an
// appbase system name, or "none" (an FTI backend that never checkpoints).
func runParallelApp(spec appSpec, sc Scale, edge, iters int, system string) appResult {
	ranks := sc.Ranks
	res := appResult{
		backends:   make([]ckpt.Backend, ranks),
		stateBytes: make([]int, ranks),
	}
	times := make([]time.Duration, ranks)
	errs := mpi.NewWorld(ranks).Run(func(c *mpi.Comm) {
		sys, every := system, sc.CkptEvery
		if system == "none" {
			sys, every = appbase.FTI, 0
		}
		b, err := appbase.Format(sys, sc.AppHeap)
		if err != nil {
			c.Fail(err)
		}
		res.backends[c.Rank()] = b
		c.AttachClock(b.Device().Clock())
		sim, err := spec.new(c, edge, ranks, b)
		if err != nil {
			c.Fail(err)
		}
		res.stateBytes[c.Rank()] = sim.State().Allocator().Used()
		if fb, ok := b.(*fti.Backend); ok {
			// FTI applications register their state with FTI_Protect; only
			// the registered region is serialized at checkpoints.
			fb.Protect(res.stateBytes[c.Rank()])
		}
		doCkpt := func() error { return mpi.Checkpoint(c, b) }
		if system != "none" {
			if err := doCkpt(); err != nil { // initial checkpoint
				c.Fail(err)
			}
		}
		start := b.Device().Clock().Now()
		if err := sim.Run(iters, every, doCkpt); err != nil {
			c.Fail(err)
		}
		c.Barrier() // align clocks so every rank reads the global end time
		times[c.Rank()] = b.Device().Clock().Now() - start
	})
	for _, err := range errs {
		if err != nil {
			res.err = err
			return res
		}
	}
	for _, d := range times {
		if d > res.simTime {
			res.simTime = d
		}
	}
	return res
}

// Fig8Apps reproduces Figure 8: relative execution time of the three
// parallel applications under FTI and libcrpm-Buffered, normalized to the
// no-checkpoint run, for two dataset sizes each.
func Fig8Apps(sc Scale) (Table, error) {
	t := Table{
		Title:  fmt.Sprintf("Figure 8: relative execution time of parallel apps, %d ranks, checkpoint every %d iterations (%s scale)", sc.Ranks, sc.CkptEvery, sc.Name),
		Header: []string{"app", "dataset", "no-ckpt", "FTI", "libcrpm-Buffered", "crpm/FTI overhead"},
	}
	// One cell per (app, dataset) row; the three runs inside a cell (base,
	// FTI, libcrpm) stay sequential because the row normalizes to base.
	rows, err := grid(appSpecs(), []int{sc.EdgeSmall, sc.EdgeLarge}, func(spec appSpec, edge int) ([]string, error) {
		iters := sc.AppItersS
		if edge == sc.EdgeLarge {
			iters = sc.AppItersL
		}
		// A row reads only each run's time, so each run's devices go back
		// before the next run maps its own.
		base := runParallelApp(spec, sc, edge, iters, "none")
		base.close()
		if base.err != nil {
			return nil, fmt.Errorf("%s base: %w", spec.name, base.err)
		}
		ftiRun := runParallelApp(spec, sc, edge, iters, appbase.FTI)
		ftiRun.close()
		if ftiRun.err != nil {
			return nil, fmt.Errorf("%s FTI: %w", spec.name, ftiRun.err)
		}
		crpmRun := runParallelApp(spec, sc, edge, iters, appbase.Buffered)
		crpmRun.close()
		if crpmRun.err != nil {
			return nil, fmt.Errorf("%s crpm: %w", spec.name, crpmRun.err)
		}
		rel := func(r appResult) float64 {
			return float64(r.simTime) / float64(base.simTime)
		}
		ftiOver := rel(ftiRun) - 1
		crpmOver := rel(crpmRun) - 1
		ratio := "n/a"
		if ftiOver > 0 {
			ratio = fmtF(crpmOver/ftiOver*100, 1) + "%"
		}
		return []string{
			spec.name,
			fmt.Sprintf("%d^3", edge),
			"1.000",
			fmtF(rel(ftiRun), 3),
			fmtF(rel(crpmRun), 3),
			ratio,
		}, nil
	})
	if err != nil {
		return t, err
	}
	for _, perApp := range rows {
		t.Rows = append(t.Rows, perApp...)
	}
	t.Notes = append(t.Notes, "crpm/FTI overhead = libcrpm's checkpoint overhead as a fraction of FTI's (the paper reports 44.78% for LULESH)")
	return t, nil
}

// RecoveryTime reproduces §5.5: kill and restart LULESH under
// libcrpm-Buffered, measuring the recovery time and its phase split for two
// dataset sizes.
func RecoveryTime(sc Scale) (Table, error) {
	t := Table{
		Title:  fmt.Sprintf("§5.5: LULESH recovery time, libcrpm-Buffered, %d ranks (%s scale)", sc.Ranks, sc.Name),
		Header: []string{"dataset", "recovery time", "resync%", "DRAM-load%", "state bytes/rank"},
	}
	// Recovery time is proportional to the program state (§5.5); the meshes
	// are doubled relative to the throughput runs so the two states span
	// different numbers of segments.
	rows, err := sweep([]int{2 * sc.EdgeSmall, 2 * sc.EdgeLarge}, func(edge int) ([]string, error) {
		run := runParallelApp(luleshSpec, sc, edge, sc.AppItersS, appbase.Buffered)
		defer run.close()
		if run.err != nil {
			return nil, run.err
		}
		// Kill: crash every rank's device mid-flight. Each rank's crash
		// randomness is seeded from its own identity, not drawn from a
		// loop-shared rng, so the damage a rank takes is a function of
		// (dataset, rank) alone.
		for rank, b := range run.backends {
			b.Device().Crash(rand.New(rand.NewSource(sched.SeedFor(fmt.Sprintf("recovery/%d/rank%d", edge, rank)))))
		}
		// Restart with coordinated recovery; measure the recovery category.
		ranks := sc.Ranks
		recPS := make([]int64, ranks)
		resyncPS := make([]int64, ranks)
		loadPS := make([]int64, ranks)
		stateBytes := make([]int64, ranks)
		errs := mpi.NewWorld(ranks).Run(func(c *mpi.Comm) {
			dev := run.backends[c.Rank()].Device()
			before := dev.Clock().CategoryPS(nvm.CatRecovery)
			b, err := appbase.Recover(c, appbase.Buffered, sc.AppHeap, dev)
			if err != nil {
				c.Fail(err)
			}
			recPS[c.Rank()] = dev.Clock().CategoryPS(nvm.CatRecovery) - before
			ctr := b.(*core.Container)
			ph := ctr.LastRecovery()
			resyncPS[c.Rank()] = ph.ResyncPS
			loadPS[c.Rank()] = ph.LoadPS
			if _, err := lulesh.Attach(luleshCfg(c.Rank(), ranks, edge), c, ctr); err != nil {
				c.Fail(err)
			}
			stateBytes[c.Rank()] = ctr.Metrics().RecoveryBytes
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		var maxRec, sumResync, sumLoad int64
		for r := 0; r < ranks; r++ {
			if recPS[r] > maxRec {
				maxRec = recPS[r]
			}
			sumResync += resyncPS[r]
			sumLoad += loadPS[r]
		}
		total := sumResync + sumLoad
		if total == 0 {
			total = 1
		}
		return []string{
			fmt.Sprintf("%d^3", edge),
			fmtDur(time.Duration(maxRec / 1000)),
			fmtF(float64(sumResync)/float64(total)*100, 1),
			fmtF(float64(sumLoad)/float64(total)*100, 1),
			fmt.Sprintf("%d", stateBytes[0]),
		}, nil
	})
	if err != nil {
		return t, err
	}
	t.Rows = rows
	t.Notes = append(t.Notes, "the paper reports 288ms/515ms for 90^3/110^3 with 43-56% spent on resynchronization")
	return t, nil
}

// StorageCost reproduces §5.6: the storage footprint of LULESH under
// libcrpm-Buffered, and the FTI comparison.
func StorageCost(sc Scale) (Table, error) {
	t := Table{
		Title:  fmt.Sprintf("§5.6: storage cost, LULESH %d^3, libcrpm-Buffered vs FTI (%s scale)", sc.EdgeSmall, sc.Name),
		Header: []string{"metric", "libcrpm-Buffered", "FTI"},
	}
	runs, err := sweep([]string{appbase.Buffered, appbase.FTI}, func(sys string) (appResult, error) {
		r := runParallelApp(luleshSpec, sc, sc.EdgeSmall, sc.AppItersS, sys)
		return r, r.err
	})
	if err != nil {
		return t, err
	}
	crpmRun, ftiRun := runs[0], runs[1]
	defer crpmRun.close()
	defer ftiRun.close()
	ctr := crpmRun.backends[0].(*core.Container)
	fb := ftiRun.backends[0].(*fti.Backend)
	m, fm := ctr.Metrics(), fb.Metrics()
	perEpoch := func(m ckpt.Metrics) string { return byteSize(int(m.CheckpointBytes / max(m.Epochs, 1))) }
	bitmapBytes := ctr.Layout().TotalBlocks() / 8
	t.Rows = append(t.Rows, [][]string{
		{"program state / process", byteSize(crpmRun.stateBytes[0]), byteSize(fb.Protected())},
		{"checkpoint size / epoch", perEpoch(m), perEpoch(fm)},
		{"DRAM buffer", byteSize(ctr.DRAMFootprint()), byteSize(fb.Size())},
		{"NVM regions (main+backup)", byteSize(ctr.NVMFootprint()), byteSize(fb.Device().Size())},
		{"persistent metadata", fmt.Sprintf("%dB", m.MetadataBytes), fmt.Sprintf("%dB", fm.MetadataBytes)},
		{"dirty block bitmap (DRAM)", byteSize(bitmapBytes), "-"},
	}...)
	t.Notes = append(t.Notes,
		"the paper reports 258MB state, 187MB/epoch checkpoints, 452MB NVM, <3KB metadata, 129KB bitmap for LULESH 90^3")
	return t, nil
}
