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
	"libcrpm/internal/region"
	"libcrpm/internal/sched"
)

// appRunner abstracts the three mini-apps for the harness.
type appRunner interface {
	Run(target, ckptEvery int, ckpt func() error) error
	State() *appbase.State
}

// appSpec builds an app for a rank.
type appSpec struct {
	name string
	new  func(c *mpi.Comm, edge, ranks int, b ckpt.Backend) (appRunner, error)
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
var luleshSpec = appSpec{"LULESH", func(c *mpi.Comm, edge, ranks int, b ckpt.Backend) (appRunner, error) {
	return lulesh.New(luleshCfg(c.Rank(), ranks, edge), c, b)
}}

func appSpecs() []appSpec {
	return []appSpec{
		luleshSpec,
		{"HPCCG", func(c *mpi.Comm, edge, ranks int, b ckpt.Backend) (appRunner, error) {
			nz := edge / ranks
			if nz < 1 {
				nz = 1
			}
			return hpccg.New(hpccg.Config{NX: edge, NY: edge, NZLocal: nz}, c, b)
		}},
		{"CoMD", func(c *mpi.Comm, edge, ranks int, b ckpt.Backend) (appRunner, error) {
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
	devs       []*nvm.Device
	containers []*core.Container // non-nil for the libcrpm system
	ftis       []*fti.Backend    // non-nil for the FTI system
	stateBytes []int             // per rank, allocator high-water mark
	err        error
}

// close hands every rank's device back.
func (r appResult) close() {
	for _, d := range r.devs {
		if d != nil {
			d.Close()
		}
	}
}

// runParallelApp executes one app with the given checkpoint system.
// system is "none" (DRAM execution, no checkpoints), "FTI", or
// "libcrpm-Buffered".
func runParallelApp(spec appSpec, sc Scale, edge, iters int, system string) appResult {
	ranks := sc.Ranks
	res := appResult{
		devs:       make([]*nvm.Device, ranks),
		containers: make([]*core.Container, ranks),
		ftis:       make([]*fti.Backend, ranks),
		stateBytes: make([]int, ranks),
	}
	times := make([]time.Duration, ranks)
	errs := mpi.NewWorld(ranks).Run(func(c *mpi.Comm) {
		var b ckpt.Backend
		var doCkpt func() error
		switch system {
		case "none", "FTI":
			fb, err := fti.New(fti.Config{HeapSize: sc.AppHeap})
			if err != nil {
				c.Fail(err)
			}
			res.ftis[c.Rank()] = fb
			res.devs[c.Rank()] = fb.Device()
			b = fb
			doCkpt = func() error {
				if err := fb.Checkpoint(); err != nil {
					return err
				}
				c.Barrier()
				return nil
			}
		case "libcrpm-Buffered":
			reg := region.Config{HeapSize: sc.AppHeap, SegmentSize: 64 << 10, BlockSize: 256, BackupRatio: 1}
			opts := mpi.ContainerOptions(reg, core.ModeBuffered)
			l, err := region.NewLayout(opts.Region)
			if err != nil {
				c.Fail(err)
			}
			res.devs[c.Rank()] = nvm.NewDevice(l.DeviceSize())
			ctr, err := core.NewContainer(res.devs[c.Rank()], opts)
			if err != nil {
				c.Fail(err)
			}
			res.containers[c.Rank()] = ctr
			b = ctr
			doCkpt = func() error { return mpi.Checkpoint(c, ctr) }
		default:
			c.Fail(fmt.Errorf("harness: unknown app system %q", system))
		}
		c.AttachClock(b.Device().Clock())
		sim, err := spec.new(c, edge, ranks, b)
		if err != nil {
			c.Fail(err)
		}
		res.stateBytes[c.Rank()] = sim.State().Allocator().Used()
		if fb := res.ftis[c.Rank()]; fb != nil {
			// FTI applications register their state with FTI_Protect; only
			// the registered region is serialized at checkpoints.
			fb.Protect(res.stateBytes[c.Rank()])
		}
		every := sc.CkptEvery
		if system == "none" {
			every = 0
		} else if err := doCkpt(); err != nil { // initial checkpoint
			c.Fail(err)
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
		ftiRun := runParallelApp(spec, sc, edge, iters, "FTI")
		ftiRun.close()
		if ftiRun.err != nil {
			return nil, fmt.Errorf("%s FTI: %w", spec.name, ftiRun.err)
		}
		crpmRun := runParallelApp(spec, sc, edge, iters, "libcrpm-Buffered")
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
		run := runParallelApp(luleshSpec, sc, edge, sc.AppItersS, "libcrpm-Buffered")
		defer run.close()
		if run.err != nil {
			return nil, run.err
		}
		// Kill: crash every rank's device mid-flight. Each rank's crash
		// randomness is seeded from its own identity, not drawn from a
		// loop-shared rng, so the damage a rank takes is a function of
		// (dataset, rank) alone.
		for rank, d := range run.devs {
			d.Crash(rand.New(rand.NewSource(sched.SeedFor(fmt.Sprintf("recovery/%d/rank%d", edge, rank)))))
		}
		// Restart with coordinated recovery; measure the recovery category.
		ranks := sc.Ranks
		recPS := make([]int64, ranks)
		resyncPS := make([]int64, ranks)
		loadPS := make([]int64, ranks)
		stateBytes := make([]int64, ranks)
		errs := mpi.NewWorld(ranks).Run(func(c *mpi.Comm) {
			reg := region.Config{HeapSize: sc.AppHeap, SegmentSize: 64 << 10, BlockSize: 256, BackupRatio: 1}
			opts := mpi.ContainerOptions(reg, core.ModeBuffered)
			before := run.devs[c.Rank()].Clock().CategoryPS(nvm.CatRecovery)
			ctr, err := mpi.OpenAndRecover(c, run.devs[c.Rank()], opts)
			if err != nil {
				c.Fail(err)
			}
			recPS[c.Rank()] = run.devs[c.Rank()].Clock().CategoryPS(nvm.CatRecovery) - before
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
	runs, err := sweep([]string{"libcrpm-Buffered", "FTI"}, func(sys string) (appResult, error) {
		r := runParallelApp(luleshSpec, sc, sc.EdgeSmall, sc.AppItersS, sys)
		return r, r.err
	})
	if err != nil {
		return t, err
	}
	crpmRun, ftiRun := runs[0], runs[1]
	defer crpmRun.close()
	defer ftiRun.close()
	ctr := crpmRun.containers[0]
	fb := ftiRun.ftis[0]
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
