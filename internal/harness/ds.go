package harness

import (
	"fmt"
	"math/rand"
	"time"

	"libcrpm/internal/nvm"
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
	runs, err := sweep(systems, func(sys string) (measured, error) {
		return measureSystem(sys, DSHashMap, sc, Geometry{}, 1, workload.Balanced)
	})
	if err != nil {
		return t, err
	}
	for i, sys := range systems {
		run := runs[i].run
		pct := func(c nvm.Category) string {
			if run.nowPS == 0 {
				return "0.0"
			}
			return fmtF(float64(run.catPS[c])/float64(run.nowPS)*100, 1)
		}
		t.Rows = append(t.Rows, []string{
			sys,
			fmtDur(time.Duration(run.nowPS / 1000)),
			pct(nvm.CatExecution),
			pct(nvm.CatTrace),
			pct(nvm.CatCheckpoint),
		})
		t.AddMetric("sim_ms/"+sys, float64(run.nowPS)/1e9)
		t.trace("fig1/"+sys, runs[i].rec)
	}
	return t, nil
}

// mixGrid measures every system under every mix on a fresh setup each: the
// cells of Figure 7 and of both halves of Table 1.
func mixGrid(sc Scale, kind DSKind, systems []string, mixes []workload.Mix, seed int64) ([][]measured, error) {
	return grid(systems, mixes, func(sys string, mix workload.Mix) (measured, error) {
		return measureSystem(sys, kind, sc, Geometry{}, seed, mix)
	})
}

// Fig7Throughput reproduces Figure 7: throughput of the persistent map and
// unordered_map across the four workloads, single thread. Every
// (system, workload) pair is an independent cell.
func Fig7Throughput(sc Scale, kind DSKind) (Table, error) {
	t := Table{
		Title:  fmt.Sprintf("Figure 7: %s throughput (Mops/s), interval %v (%s scale)", kind, sc.Interval, sc.Name),
		Header: []string{"system", "Insert-only", "Balanced", "Read-heavy", "Read-only"},
	}
	systems, mixes := DSSystems(kind), workload.Mixes()
	runs, err := mixGrid(sc, kind, systems, mixes, 7)
	if err != nil {
		return t, err
	}
	addRows(&t, systems, runs, mops)
	for si, sys := range systems {
		for mi, mix := range mixes {
			t.trace(fmt.Sprintf("fig7/%s/%s/%s", kind, sys, mix.Name), runs[si][mi].rec)
		}
	}
	return t, nil
}

// table1Mixes are the columns of Table 1: the mixes that write.
var table1Mixes = []workload.Mix{workload.InsertOnly, workload.Balanced, workload.ReadHeavy}

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
	systems := []string{"Mprotect", "Soft-dirty bit", "libcrpm-Default"}
	runs, err := mixGrid(sc, DSHashMap, systems, table1Mixes, 3)
	if err != nil {
		return t, err
	}
	bytesPerOp := func(m measured) float64 { return float64(m.run.ckpt.CheckpointBytes) / float64(sc.Ops) }
	addRows(&t, systems, runs, func(m measured) string { return fmtF(bytesPerOp(m), 1) })
	for si, sys := range systems {
		for mi, mix := range table1Mixes {
			t.AddMetric("ckpt_bytes_per_op/"+sys+"/"+mix.Name, bytesPerOp(runs[si][mi]))
		}
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
	systems := []string{"Undo-log", "LMC", "libcrpm-Default"}
	runs, err := mixGrid(sc, DSHashMap, systems, table1Mixes, 5)
	if err != nil {
		return t, err
	}
	addRows(&t, systems, runs, func(m measured) string {
		return fmtF(m.perEpoch(float64(m.run.dev.SFences)), 1)
	})
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
	runs, err := grid(systems, intervals, func(sys string, iv time.Duration) (measured, error) {
		sci := sc
		sci.Interval = iv
		return measureSystem(sys, kind, sci, Geometry{}, 9, workload.Balanced)
	})
	if err != nil {
		return t, err
	}
	addRows(&t, systems, runs, mops)
	return t, nil
}

// Fig10aSegment reproduces Figure 10a: libcrpm-Default unordered_map
// throughput across segment sizes (block size fixed at 256 B).
func Fig10aSegment(sc Scale) (Table, error) {
	t := Table{
		Title:  fmt.Sprintf("Figure 10a: libcrpm-Default throughput (Mops/s) vs segment size, block 256B (%s scale)", sc.Name),
		Header: []string{"workload"},
		Notes:  []string{"the paper sweeps 512B-32MB on a 24M-key heap; the simulator sweeps the same two decades around its scaled heap"},
	}
	var geos []Geometry
	for _, seg := range []int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 2 << 20} {
		t.Header = append(t.Header, byteSize(seg))
		geos = append(geos, Geometry{SegmentSize: seg, BlockSize: 256})
	}
	return fig10(sc, t, geos, 10)
}

// Fig10bBlock reproduces Figure 10b: libcrpm-Default unordered_map
// throughput across block sizes (segment size fixed at 2 MB when it fits).
func Fig10bBlock(sc Scale) (Table, error) {
	seg := 2 << 20
	if seg > sc.HeapSize/2 {
		seg = sc.HeapSize / 2
	}
	t := Table{
		Title:  fmt.Sprintf("Figure 10b: libcrpm-Default throughput (Mops/s) vs block size, segment %s (%s scale)", byteSize(seg), sc.Name),
		Header: []string{"workload"},
	}
	var geos []Geometry
	for _, blk := range []int{64, 128, 256, 1024, 4096, 16384} {
		t.Header = append(t.Header, byteSize(blk))
		geos = append(geos, Geometry{SegmentSize: seg, BlockSize: blk})
	}
	return fig10(sc, t, geos, 11)
}

// fig10 is the body of both halves of Figure 10: the balanced and read-heavy
// workloads down, one container geometry per column.
func fig10(sc Scale, t Table, geos []Geometry, seed int64) (Table, error) {
	mixes := []workload.Mix{workload.Balanced, workload.ReadHeavy}
	runs, err := grid(mixes, geos, func(mix workload.Mix, g Geometry) (measured, error) {
		return measureSystem("libcrpm-Default", DSHashMap, sc, g, seed, mix)
	})
	if err != nil {
		return t, err
	}
	addRows(&t, []string{mixes[0].Name, mixes[1].Name}, runs, mops)
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
