package harness

import (
	"fmt"
	"math/rand"
	"time"

	"libcrpm/internal/nvm"
	"libcrpm/internal/obs"
	"libcrpm/internal/sched"
	"libcrpm/internal/workload"
)

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Fig1Breakdown reproduces Figure 1: the execution-time breakdown
// (execution / memory trace / checkpoint) of the persistent unordered_map
// under the balanced workload. Each system is one scheduler cell with its
// own simulated device; rows are reduced in the paper's system order.
func Fig1Breakdown(sc Scale) (Table, error) {
	t := Table{
		Title:  fmt.Sprintf("Figure 1: execution time breakdown, unordered_map, balanced, interval %v (%s scale)", sc.Interval, sc.Name),
		Header: []string{"system", "total", "execution%", "memory-trace%", "checkpoint%"},
	}
	systems := []string{"Mprotect", "Soft-dirty bit", "Undo-log", "LMC", "libcrpm-Default", "libcrpm-Buffered"}
	type cellRes struct {
		row   []string
		simPS int64
	}
	recs := sched.NewCollector[*obs.Recorder](len(systems))
	cells, err := sched.MapErr(len(systems), pool(), func(i int) (cellRes, error) {
		sys := systems[i]
		s, err := NewDSSetup(sys, DSHashMap, sc, Geometry{})
		if err != nil {
			return cellRes{}, err
		}
		recs.Put(i, s.Rec)
		d := s.Driver(sc, 1)
		if err := d.Populate(sc.Keys); err != nil {
			return cellRes{}, fmt.Errorf("%s: %w", sys, err)
		}
		clock := s.Dev.Clock()
		base := [nvm.NumCategories]int64{}
		for c := nvm.Category(0); c < nvm.NumCategories; c++ {
			base[c] = clock.CategoryPS(c)
		}
		startPS := clock.NowPS()
		if _, err := d.Run(workload.Balanced, sc.Ops); err != nil {
			return cellRes{}, fmt.Errorf("%s: %w", sys, err)
		}
		total := clock.NowPS() - startPS
		pct := func(c nvm.Category) string {
			if total == 0 {
				return "0.0"
			}
			return fmtF(float64(clock.CategoryPS(c)-base[c])/float64(total)*100, 1)
		}
		return cellRes{
			row: []string{
				sys,
				fmtDur(time.Duration((clock.NowPS() - startPS) / 1000)),
				pct(nvm.CatExecution),
				pct(nvm.CatTrace),
				pct(nvm.CatCheckpoint),
			},
			simPS: total,
		}, nil
	})
	if err != nil {
		return t, err
	}
	for i, c := range cells {
		t.Rows = append(t.Rows, c.row)
		t.AddMetric("sim_ms/"+systems[i], float64(c.simPS)/1e9)
	}
	labels := make([]string, len(systems))
	for i, sys := range systems {
		labels[i] = "fig1/" + sys
	}
	collectTraces(&t, labels, recs.Items())
	return t, nil
}

// Fig7Throughput reproduces Figure 7: throughput of the persistent map and
// unordered_map across the four workloads, single thread. Every
// (system, workload) pair is an independent cell.
func Fig7Throughput(sc Scale, kind DSKind) (Table, error) {
	t := Table{
		Title:  fmt.Sprintf("Figure 7: %s throughput (Mops/s), interval %v (%s scale)", kind, sc.Interval, sc.Name),
		Header: []string{"system", "Insert-only", "Balanced", "Read-heavy", "Read-only"},
	}
	systems := DSSystems(kind)
	mixes := workload.Mixes()
	recs := sched.NewCollector[*obs.Recorder](len(systems) * len(mixes))
	cells, err := sched.MapErr(len(systems)*len(mixes), pool(), func(i int) (string, error) {
		sys, mix := systems[i/len(mixes)], mixes[i%len(mixes)]
		s, err := NewDSSetup(sys, kind, sc, Geometry{})
		if err != nil {
			return "", err
		}
		recs.Put(i, s.Rec)
		d, err := s.startRun(sc, 7, mix)
		if err != nil {
			return "", fmt.Errorf("%s/%s: %w", sys, mix.Name, err)
		}
		res, err := d.Run(mix, sc.Ops)
		if err != nil {
			return "", fmt.Errorf("%s/%s: %w", sys, mix.Name, err)
		}
		return fmtF(res.Throughput/1e6, 3), nil
	})
	if err != nil {
		return t, err
	}
	for si, sys := range systems {
		row := append([]string{sys}, cells[si*len(mixes):(si+1)*len(mixes)]...)
		t.Rows = append(t.Rows, row)
	}
	labels := make([]string, len(systems)*len(mixes))
	for i := range labels {
		labels[i] = fmt.Sprintf("fig7/%s/%s/%s", kind, systems[i/len(mixes)], mixes[i%len(mixes)].Name)
	}
	collectTraces(&t, labels, recs.Items())
	return t, nil
}

// Table1a reproduces Table 1a: average checkpoint size in bytes per
// operation for the page-tracking baselines and libcrpm-Default.
func Table1a(sc Scale) (Table, error) {
	t := Table{
		Title:  fmt.Sprintf("Table 1a: average checkpoint size (bytes/op), unordered_map (%s scale)", sc.Name),
		Header: []string{"system", "Insert-only", "Balanced", "Read-heavy"},
		Notes: []string{
			"checkpoint size = bytes persisted during checkpoint periods (copy-on-write traffic reported separately in the ablation bench)",
		},
	}
	mixes := []workload.Mix{workload.InsertOnly, workload.Balanced, workload.ReadHeavy}
	systems := []string{"Mprotect", "Soft-dirty bit", "libcrpm-Default"}
	type cellRes struct {
		cell       string
		bytesPerOp float64
	}
	cells, err := sched.MapErr(len(systems)*len(mixes), pool(), func(i int) (cellRes, error) {
		sys, mix := systems[i/len(mixes)], mixes[i%len(mixes)]
		s, err := NewDSSetup(sys, DSHashMap, sc, Geometry{})
		if err != nil {
			return cellRes{}, err
		}
		d, err := s.startRun(sc, 3, mix)
		if err != nil {
			return cellRes{}, err
		}
		before := s.Backend.Metrics().CheckpointBytes
		if _, err := d.Run(mix, sc.Ops); err != nil {
			return cellRes{}, fmt.Errorf("%s/%s: %w", sys, mix.Name, err)
		}
		delta := s.Backend.Metrics().CheckpointBytes - before
		v := float64(delta) / float64(sc.Ops)
		return cellRes{cell: fmtF(v, 1), bytesPerOp: v}, nil
	})
	if err != nil {
		return t, err
	}
	for si, sys := range systems {
		row := []string{sys}
		for mi, mix := range mixes {
			c := cells[si*len(mixes)+mi]
			row = append(row, c.cell)
			t.AddMetric("ckpt_bytes_per_op/"+sys+"/"+mix.Name, c.bytesPerOp)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Table1b reproduces Table 1b: sfence instructions issued per epoch for the
// fine-grained baselines and libcrpm-Default.
func Table1b(sc Scale) (Table, error) {
	t := Table{
		Title:  fmt.Sprintf("Table 1b: sfence instructions per epoch, unordered_map (%s scale)", sc.Name),
		Header: []string{"system", "Insert-only", "Balanced", "Read-heavy"},
	}
	mixes := []workload.Mix{workload.InsertOnly, workload.Balanced, workload.ReadHeavy}
	systems := []string{"Undo-log", "LMC", "libcrpm-Default"}
	cells, err := sched.MapErr(len(systems)*len(mixes), pool(), func(i int) (string, error) {
		sys, mix := systems[i/len(mixes)], mixes[i%len(mixes)]
		s, err := NewDSSetup(sys, DSHashMap, sc, Geometry{})
		if err != nil {
			return "", err
		}
		d, err := s.startRun(sc, 5, mix)
		if err != nil {
			return "", err
		}
		fBefore := s.Dev.Stats().SFences
		res, err := d.Run(mix, sc.Ops)
		if err != nil {
			return "", fmt.Errorf("%s/%s: %w", sys, mix.Name, err)
		}
		fences := s.Dev.Stats().SFences - fBefore
		epochs := res.Epochs
		if epochs == 0 {
			epochs = 1
		}
		return fmtF(float64(fences)/float64(epochs), 1), nil
	})
	if err != nil {
		return t, err
	}
	for si, sys := range systems {
		t.Rows = append(t.Rows, append([]string{sys}, cells[si*len(mixes):(si+1)*len(mixes)]...))
	}
	return t, nil
}

// Fig9Interval reproduces Figure 9: throughput under the balanced workload
// as the checkpoint interval varies. Every (system, interval) pair is an
// independent cell.
func Fig9Interval(sc Scale, kind DSKind) (Table, error) {
	intervals := []time.Duration{
		1 * time.Millisecond, 4 * time.Millisecond, 16 * time.Millisecond,
		64 * time.Millisecond, 128 * time.Millisecond,
	}
	t := Table{
		Title:  fmt.Sprintf("Figure 9: %s throughput (Mops/s) vs checkpoint interval, balanced (%s scale)", kind, sc.Name),
		Header: []string{"system"},
	}
	for _, iv := range intervals {
		t.Header = append(t.Header, iv.String())
	}
	systems := []string{"Mprotect", "Soft-dirty bit", "Undo-log", "LMC", "libcrpm-Default", "libcrpm-Buffered"}
	cells, err := sched.MapErr(len(systems)*len(intervals), pool(), func(i int) (string, error) {
		sys, iv := systems[i/len(intervals)], intervals[i%len(intervals)]
		sci := sc
		sci.Interval = iv
		s, err := NewDSSetup(sys, kind, sci, Geometry{})
		if err != nil {
			return "", err
		}
		d := s.Driver(sci, 9)
		if err := d.Populate(sci.Keys); err != nil {
			return "", err
		}
		res, err := d.Run(workload.Balanced, sci.Ops)
		if err != nil {
			return "", fmt.Errorf("%s@%v: %w", sys, iv, err)
		}
		return fmtF(res.Throughput/1e6, 3), nil
	})
	if err != nil {
		return t, err
	}
	for si, sys := range systems {
		t.Rows = append(t.Rows, append([]string{sys}, cells[si*len(intervals):(si+1)*len(intervals)]...))
	}
	return t, nil
}

// Fig10aSegment reproduces Figure 10a: libcrpm-Default unordered_map
// throughput across segment sizes (block size fixed at 256 B).
func Fig10aSegment(sc Scale) (Table, error) {
	segs := []int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 2 << 20}
	t := Table{
		Title:  fmt.Sprintf("Figure 10a: libcrpm-Default throughput (Mops/s) vs segment size, block 256B (%s scale)", sc.Name),
		Header: []string{"workload"},
		Notes:  []string{"the paper sweeps 512B-32MB on a 24M-key heap; the simulator sweeps the same two decades around its scaled heap"},
	}
	for _, s := range segs {
		t.Header = append(t.Header, byteSize(s))
	}
	mixes := []workload.Mix{workload.Balanced, workload.ReadHeavy}
	cells, err := sched.MapErr(len(mixes)*len(segs), pool(), func(i int) (string, error) {
		mix, seg := mixes[i/len(segs)], segs[i%len(segs)]
		s, err := NewDSSetup("libcrpm-Default", DSHashMap, sc, Geometry{SegmentSize: seg, BlockSize: 256})
		if err != nil {
			return "", err
		}
		d := s.Driver(sc, 10)
		if err := d.Populate(sc.Keys); err != nil {
			return "", err
		}
		res, err := d.Run(mix, sc.Ops)
		if err != nil {
			return "", fmt.Errorf("seg %d: %w", seg, err)
		}
		return fmtF(res.Throughput/1e6, 3), nil
	})
	if err != nil {
		return t, err
	}
	for mi, mix := range mixes {
		t.Rows = append(t.Rows, append([]string{mix.Name}, cells[mi*len(segs):(mi+1)*len(segs)]...))
	}
	return t, nil
}

// Fig10bBlock reproduces Figure 10b: libcrpm-Default unordered_map
// throughput across block sizes (segment size fixed at 2 MB when it fits).
func Fig10bBlock(sc Scale) (Table, error) {
	blocks := []int{64, 128, 256, 1024, 4096, 16384}
	seg := 2 << 20
	if seg > sc.HeapSize/2 {
		seg = sc.HeapSize / 2
	}
	t := Table{
		Title:  fmt.Sprintf("Figure 10b: libcrpm-Default throughput (Mops/s) vs block size, segment %s (%s scale)", byteSize(seg), sc.Name),
		Header: []string{"workload"},
	}
	for _, b := range blocks {
		t.Header = append(t.Header, byteSize(b))
	}
	mixes := []workload.Mix{workload.Balanced, workload.ReadHeavy}
	cells, err := sched.MapErr(len(mixes)*len(blocks), pool(), func(i int) (string, error) {
		mix, blk := mixes[i/len(blocks)], blocks[i%len(blocks)]
		s, err := NewDSSetup("libcrpm-Default", DSHashMap, sc, Geometry{SegmentSize: seg, BlockSize: blk})
		if err != nil {
			return "", err
		}
		d := s.Driver(sc, 11)
		if err := d.Populate(sc.Keys); err != nil {
			return "", err
		}
		res, err := d.Run(mix, sc.Ops)
		if err != nil {
			return "", fmt.Errorf("block %d: %w", blk, err)
		}
		return fmtF(res.Throughput/1e6, 3), nil
	})
	if err != nil {
		return t, err
	}
	for mi, mix := range mixes {
		t.Rows = append(t.Rows, append([]string{mix.Name}, cells[mi*len(blocks):(mi+1)*len(blocks)]...))
	}
	return t, nil
}

func byteSize(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
