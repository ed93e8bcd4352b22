package harness

import (
	"fmt"

	"libcrpm/internal/ckpt"
	"libcrpm/internal/sched"
	"libcrpm/internal/workload"
)

// The crossover study compares the paper's differential checkpointing
// against in-cache-line logging (InCLL) on the raw write path, without a
// data structure in between: a synthetic arena workload sweeps write size,
// write locality, and YCSB read/write mix, and each cell reports simulated
// throughput, checkpoint traffic, and flushed lines for every backend.
//
// The mechanism under test: InCLL persists each small write's undo image
// into the written cache line's co-located slot (one line flush, O(1)
// checkpoints), so it profits when epochs are short and writes are small
// and scattered; differential checkpointing pays per-epoch block copies but
// flushes a rewritten block only once per epoch, so it profits when
// locality is high or writes are large.

// CrossoverSystems are the backends of the crossover figure, in column
// order: the paper's two differential modes and the InCLL extension.
func CrossoverSystems() []string {
	return []string{"libcrpm-Default", "libcrpm-Buffered", "InCLL"}
}

// OnWriteSystems lists the backends of the OnWrite microbenchmark matrix in
// row order: every system with an instrumented write hook.
func OnWriteSystems() []string {
	return []string{
		"Mprotect", "Soft-dirty bit", "Undo-log", "LMC", "NVM-NP",
		"libcrpm-Default", "libcrpm-Buffered", "InCLL",
	}
}

// OnWriteSizes are the write sizes (bytes) of the crossover and
// microbenchmark grids: sub-slot, slot-overflow, one media block, one page.
func OnWriteSizes() []int { return []int{8, 64, 256, 4096} }

// NewArenaBackend builds a bare checkpoint backend over heapSize bytes,
// with no allocator or data structure on top — the raw-write-path
// counterpart of NewDSSetup, shared by the crossover cells, the OnWrite
// microbenchmark, and the root-level Go benchmarks.
func NewArenaBackend(system string, heapSize int) (ckpt.Backend, error) {
	return newBackend(system, heapSize, Geometry{})
}

// arenaCell is one (size, locality, mix) workload point of the grid.
type arenaCell struct {
	size      int
	dist      string  // "uniform" | "zipfian"
	mix       string  // "update-heavy" | "read-mostly"
	writeFrac float64 // fraction of ops that write (YCSB A / B proportions)
}

func crossoverCells() []arenaCell {
	var cells []arenaCell
	for _, size := range OnWriteSizes() {
		for _, dist := range []string{"uniform", "zipfian"} {
			for _, mix := range []struct {
				name string
				wf   float64
			}{{"update-heavy", 0.5}, {"read-mostly", 0.05}} {
				cells = append(cells, arenaCell{size, dist, mix.name, mix.wf})
			}
		}
	}
	return cells
}

// arenaResult is one backend's measurement at one workload point.
type arenaResult struct {
	mops      float64
	ckptBytes int64
	flushed   int64
}

// runArena drives ops size-aligned operations against b, checkpointing
// every ckptEvery ops, and returns the simulated-clock throughput and
// checkpoint-traffic deltas. The offset stream is a pure function of the
// cell label (via sched.SeedFor), so the sweep is byte-identical at any
// parallelism.
func runArena(b ckpt.Backend, heapSize, ops, ckptEvery int, cell arenaCell, label string) (arenaResult, error) {
	nSlots := heapSize / cell.size
	if nSlots == 0 {
		return arenaResult{}, fmt.Errorf("harness: arena smaller than one %dB slot", cell.size)
	}
	rng := newRng(sched.SeedFor(label))
	var zipf *workload.Zipfian
	if cell.dist == "zipfian" {
		zipf = workload.NewZipfian(uint64(nSlots), 0.99)
	}
	buf := make([]byte, cell.size)
	rng.Read(buf)
	clock := b.Device().Clock()
	m0, flushed0 := b.Metrics(), b.Device().Stats().FlushedLines
	startPS := clock.NowPS()
	for i := 0; i < ops; i++ {
		var slot int
		if zipf != nil {
			slot = int(zipf.Next(rng))
		} else {
			slot = rng.Intn(nSlots)
		}
		off := slot * cell.size
		if rng.Float64() < cell.writeFrac {
			buf[i%cell.size]++
			b.OnWrite(off, cell.size)
			b.Write(off, buf)
		} else {
			b.OnRead(off, cell.size)
			_ = b.Bytes()[off]
		}
		if (i+1)%ckptEvery == 0 {
			if err := b.Checkpoint(); err != nil {
				return arenaResult{}, err
			}
		}
	}
	if ops%ckptEvery != 0 {
		if err := b.Checkpoint(); err != nil {
			return arenaResult{}, err
		}
	}
	simPS := clock.NowPS() - startPS
	if simPS <= 0 {
		simPS = 1
	}
	return arenaResult{
		mops:      float64(ops) * 1e6 / float64(simPS),
		ckptBytes: b.Metrics().Sub(m0).CheckpointBytes,
		flushed:   b.Device().Stats().FlushedLines - flushed0,
	}, nil
}

// CrossoverFigure sweeps write size x locality x YCSB mix over the three
// crossover backends and reports, per workload point, throughput and
// checkpoint traffic side by side, plus which scheme wins both metrics at
// once. Epochs are deliberately short (checkpoint every ops/300 operations)
// — the regime the InCLL design targets; Fig9 covers the long-epoch axis.
func CrossoverFigure(sc Scale) (Table, error) {
	heapSize := sc.HeapSize / 4
	ops := sc.Ops / 2
	ckptEvery := ops / 300
	if ckptEvery < 1 {
		ckptEvery = 1
	}
	t := Table{
		Title: fmt.Sprintf("Crossover: InCLL vs differential checkpointing, %s arena, ckpt every %d ops (%s scale)",
			byteSize(heapSize), ckptEvery, sc.Name),
		Header: []string{"write", "locality", "mix"},
		Notes: []string{
			"winner = scheme ahead on BOTH throughput and checkpoint bytes; split = metrics disagree",
		},
	}
	systems := CrossoverSystems()
	short := map[string]string{"libcrpm-Default": "Default", "libcrpm-Buffered": "Buffered", "InCLL": "InCLL"}
	for _, sys := range systems {
		t.Header = append(t.Header, short[sys]+" Mops/s")
	}
	for _, sys := range systems {
		t.Header = append(t.Header, short[sys]+" ckptKB")
	}
	t.Header = append(t.Header, "winner")

	cells := crossoverCells()
	results, err := grid(cells, systems, func(cell arenaCell, sys string) (arenaResult, error) {
		b, err := NewArenaBackend(sys, heapSize)
		if err != nil {
			return arenaResult{}, err
		}
		defer b.Device().Close()
		label := fmt.Sprintf("crossover/%dB/%s/%s/%s", cell.size, cell.dist, cell.mix, sys)
		return runArena(b, heapSize, ops, ckptEvery, cell, label)
	})
	if err != nil {
		return t, err
	}

	var incllWins, diffWins []string
	for ci, cell := range cells {
		perSys := results[ci]
		cellName := fmt.Sprintf("%dB/%s/%s", cell.size, cell.dist, cell.mix)
		row := []string{fmt.Sprintf("%dB", cell.size), cell.dist, cell.mix}
		for _, r := range perSys {
			row = append(row, fmtF(r.mops, 3))
		}
		for si, r := range perSys {
			row = append(row, fmtF(float64(r.ckptBytes)/1024, 1))
			t.AddMetric("xover_mops/"+cellName+"/"+short[systems[si]], r.mops)
			t.AddMetric("xover_ckpt_kb/"+cellName+"/"+short[systems[si]], float64(r.ckptBytes)/1024)
			t.AddMetric("xover_flushed_lines/"+cellName+"/"+short[systems[si]], float64(r.flushed))
		}
		// The paper's scheme is represented by its better mode on each
		// metric; InCLL must beat both modes on both metrics to win.
		def, buf, inc := perSys[0], perSys[1], perSys[2]
		bestDiffMops := def.mops
		if buf.mops > bestDiffMops {
			bestDiffMops = buf.mops
		}
		bestDiffBytes := def.ckptBytes
		if buf.ckptBytes < bestDiffBytes {
			bestDiffBytes = buf.ckptBytes
		}
		winner := "split"
		switch {
		case inc.mops > bestDiffMops && inc.ckptBytes < bestDiffBytes:
			winner = "InCLL"
			incllWins = append(incllWins, cellName)
		case bestDiffMops > inc.mops && bestDiffBytes < inc.ckptBytes:
			winner = "differential"
			diffWins = append(diffWins, cellName)
		}
		row = append(row, winner)
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("InCLL wins both metrics in %d cells: %s", len(incllWins), joinOrNone(incllWins)),
		fmt.Sprintf("differential wins both metrics in %d cells: %s", len(diffWins), joinOrNone(diffWins)),
	)
	return t, nil
}

func joinOrNone(cells []string) string {
	if len(cells) == 0 {
		return "(none)"
	}
	s := cells[0]
	for _, c := range cells[1:] {
		s += ", " + c
	}
	return s
}

// OnWriteMicro is the per-backend OnWrite hot-path matrix: simulated
// nanoseconds per traced write (OnWrite + Write, checkpoints excluded from
// the timing) for every backend at every grid size, over a uniform stream
// of size-aligned writes.
func OnWriteMicro(sc Scale) (Table, error) {
	const (
		heapSize  = 1 << 20
		ops       = 8_000
		ckptEvery = 500
	)
	t := Table{
		Title:  fmt.Sprintf("OnWrite micro: simulated ns per traced write, %s arena, uniform offsets (%s scale)", byteSize(heapSize), sc.Name),
		Header: []string{"system"},
		Notes: []string{
			"per-op cost of OnWrite+Write only; checkpoints run every 500 ops but are excluded from the timing",
		},
	}
	sizes := OnWriteSizes()
	for _, size := range sizes {
		t.Header = append(t.Header, fmt.Sprintf("%dB", size))
	}
	systems := OnWriteSystems()
	cells, err := grid(systems, sizes, func(sys string, size int) (float64, error) {
		b, err := NewArenaBackend(sys, heapSize)
		if err != nil {
			return 0, err
		}
		defer b.Device().Close()
		nSlots := heapSize / size
		rng := newRng(sched.SeedFor(fmt.Sprintf("onwrite/%s/%dB", sys, size)))
		buf := make([]byte, size)
		rng.Read(buf)
		clock := b.Device().Clock()
		var spentPS int64
		for op := 0; op < ops; op++ {
			off := rng.Intn(nSlots) * size
			t0 := clock.NowPS()
			b.OnWrite(off, size)
			b.Write(off, buf)
			spentPS += clock.NowPS() - t0
			if (op+1)%ckptEvery == 0 {
				if err := b.Checkpoint(); err != nil {
					return 0, err
				}
			}
		}
		return float64(spentPS) / 1000 / float64(ops), nil
	})
	if err != nil {
		return t, err
	}
	for si, sys := range systems {
		row := []string{sys}
		for zi, size := range sizes {
			ns := cells[si][zi]
			row = append(row, fmtF(ns, 1))
			t.AddMetric(fmt.Sprintf("onwrite_ns/%s/%dB", sys, size), ns)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
