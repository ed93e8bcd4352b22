package harness

import (
	"fmt"
	"time"

	"libcrpm/internal/baselines/fti"
	"libcrpm/internal/core"
	"libcrpm/internal/nvm"
	"libcrpm/internal/region"
	"libcrpm/internal/workload"
)

// crpmVariant is one row of a libcrpm ablation: what the table calls it and
// the container options that make it.
type crpmVariant struct {
	name string
	opts core.Options
}

// crpmAblation is the body of the four libcrpm-variant ablations: the balanced
// workload on a hash map over each variant's container, one row per variant —
// its name, its throughput, then what extra reads off the run and the
// container it ran on.
func crpmAblation(sc Scale, t Table, seed int64, variants []crpmVariant, extra func(measured, *core.Container) []string) (Table, error) {
	rows, err := sweep(variants, func(v crpmVariant) ([]string, error) {
		ctr, err := newContainer(sc.HeapSize, v.opts)
		if err != nil {
			return nil, err
		}
		s, err := newSetup(ctr.Name(), ctr, DSHashMap, sc)
		if err != nil {
			return nil, err
		}
		m, err := s.measure(sc, seed, workload.Balanced)
		if err != nil {
			return nil, err
		}
		return append([]string{v.name, mops(m)}, extra(m, ctr)...), nil
	})
	if err != nil {
		return t, err
	}
	t.Rows = rows
	return t, nil
}

// AblationEagerCoW measures the §3.4.2 optimization: executing the dirty
// segments' copy-on-write during the checkpoint period versus lazily at the
// next epoch's first writes.
func AblationEagerCoW(sc Scale) (Table, error) {
	return crpmAblation(sc, Table{
		Title:  fmt.Sprintf("Ablation: eager checkpoint-period CoW (unordered_map, balanced, %s scale)", sc.Name),
		Header: []string{"variant", "Mops/s", "sfences/epoch"},
	}, 21, []crpmVariant{
		{"eager (paper default)", core.Options{EagerCoWSegments: 0}},
		{"lazy (disabled)", core.Options{EagerCoWSegments: -1}},
	}, func(m measured, _ *core.Container) []string {
		return []string{fmtF(m.perEpoch(float64(m.total.dev.SFences)), 1)}
	})
}

// AblationDifferentialCopy compares block-granularity differential
// copy-on-write against whole-segment copies (setting the block size equal
// to the segment size degenerates to full-segment copies).
func AblationDifferentialCopy(sc Scale) (Table, error) {
	seg := 64 << 10
	return crpmAblation(sc, Table{
		Title:  fmt.Sprintf("Ablation: differential vs full-segment CoW (segment %s, balanced, %s scale)", byteSize(seg), sc.Name),
		Header: []string{"variant", "Mops/s", "CoW MB/epoch"},
	}, 22, []crpmVariant{
		{"differential (256B blocks)", core.Options{Region: region.Config{SegmentSize: seg, BlockSize: 256}}},
		{"full segment copies", core.Options{Region: region.Config{SegmentSize: seg, BlockSize: seg}}},
	}, func(m measured, ctr *core.Container) []string {
		return []string{fmtF(m.perEpoch(float64(ctr.CoWBytes()))/(1<<20), 2)}
	})
}

// AblationFlushThreshold measures the clwb-loop vs wbinvd choice of §3.4.2
// by forcing each path.
func AblationFlushThreshold(sc Scale) (Table, error) {
	return crpmAblation(sc, Table{
		Title:  fmt.Sprintf("Ablation: checkpoint flush path (unordered_map, balanced, %s scale)", sc.Name),
		Header: []string{"variant", "Mops/s", "wbinvd/epoch", "clwb/epoch"},
	}, 23, []crpmVariant{
		{"clwb loop (LLC threshold high)", core.Options{LLCSize: 1 << 30}},
		{"wbinvd always (threshold 1B)", core.Options{LLCSize: 1}},
	}, func(m measured, _ *core.Container) []string {
		return []string{
			fmtF(m.perEpoch(float64(m.total.dev.WBINVDs)), 2),
			fmtF(m.perEpoch(float64(m.total.dev.CLWBs)), 0),
		}
	})
}

// AblationBackupRatio measures the cost of a scarce backup region: stealing
// and evacuation against full pairing. The paper's constraint is explicit —
// the segments modified in one epoch must fit the backup region — so the
// workload writes a rotating window of segments, bounded well below the
// smallest backup count.
func AblationBackupRatio(sc Scale) (Table, error) {
	t := Table{
		Title:  fmt.Sprintf("Ablation: backup region provisioning (rotating-window writes, %s scale)", sc.Name),
		Header: []string{"backup ratio", "sim time/epoch", "NVM footprint"},
	}
	const segSize = 64 << 10
	nSegs := sc.HeapSize / segSize
	window := nSegs / 8 // segments written per epoch
	if window < 1 {
		window = 1
	}
	rows, err := sweep([]float64{1.0, 0.5, 0.25}, func(ratio float64) ([]string, error) {
		ctr, err := newContainer(sc.HeapSize, core.Options{Mode: core.ModeDefault, Region: region.Config{SegmentSize: segSize, BlockSize: 256, BackupRatio: ratio}})
		if err != nil {
			return nil, err
		}
		dev := ctr.Device()
		var buf [8]byte
		const epochs = 24
		start := dev.Clock().NowPS()
		for e := 0; e < epochs; e++ {
			for w := 0; w < window; w++ {
				seg := (e*window + w) % nSegs
				for blk := 0; blk < 16; blk++ {
					off := seg*segSize + blk*256
					ctr.OnWrite(off, 8)
					ctr.Write(off, buf[:])
				}
			}
			if err := ctr.Checkpoint(); err != nil {
				return nil, err
			}
		}
		perEpoch := time.Duration((dev.Clock().NowPS() - start) / epochs / 1000)
		return []string{
			fmtF(ratio, 2),
			fmtDur(perEpoch),
			byteSize(ctr.NVMFootprint()),
		}, nil
	})
	if err != nil {
		return t, err
	}
	t.Rows = rows
	t.Notes = append(t.Notes,
		"smaller ratios trade NVM capacity for stealing/evacuation copies; an epoch that dirties more segments than the backup region holds fails by design (§3.3)")
	return t, nil
}

// AblationFTIIncremental reproduces footnote 4: FTI's hash-based
// incremental checkpointing writes less but pays for hashing the whole
// protected region every checkpoint.
func AblationFTIIncremental(sc Scale) (Table, error) {
	t := Table{
		Title:  fmt.Sprintf("Ablation (footnote 4): FTI full vs hash-incremental checkpoints (%s scale)", sc.Name),
		Header: []string{"variant", "Mops/s", "ckpt MB/epoch", "ckpt time share %"},
	}
	// DRAM-speed execution crosses few epoch boundaries at the default
	// interval; shorten it so the steady-state behaviour (beyond the two
	// slot-filling checkpoints) dominates.
	sc.Interval /= 8
	if sc.Interval <= 0 {
		sc.Interval = 1
	}
	rows, err := sweep([]bool{false, true}, func(incremental bool) ([]string, error) {
		b, err := fti.New(fti.Config{HeapSize: sc.HeapSize, Incremental: incremental})
		if err != nil {
			return nil, err
		}
		s, err := newSetup(b.Name(), b, DSHashMap, sc)
		if err != nil {
			return nil, err
		}
		d, err := s.startRun(sc, 25, workload.Balanced)
		if err != nil {
			return nil, err
		}
		// Pre-fill both slots so the steady state is measured: measure's
		// run, with two checkpoints between the load and the baseline.
		if err := b.Checkpoint(); err != nil {
			return nil, err
		}
		if err := b.Checkpoint(); err != nil {
			return nil, err
		}
		base := s.counters()
		res, err := d.Run(workload.Balanced, sc.Ops)
		if err != nil {
			return nil, err
		}
		m := measured{Result: res, run: s.counters().since(base)}
		return []string{
			b.Name(),
			mops(m),
			fmtF(m.perEpoch(float64(m.run.ckpt.CheckpointBytes))/(1<<20), 2),
			fmtF(float64(m.run.catPS[nvm.CatCheckpoint])/float64(m.run.nowPS)*100, 1),
		}, nil
	})
	if err != nil {
		return t, err
	}
	t.Rows = rows
	return t, nil
}

// AblationBufferedVsDefault contrasts the two libcrpm modes across
// workloads (the §3.5 trade-off: DRAM-speed execution vs extra checkpoint
// copies).
func AblationBufferedVsDefault(sc Scale) (Table, error) {
	return crpmAblation(sc, Table{
		Title:  fmt.Sprintf("Ablation: libcrpm default vs buffered mode (unordered_map, %s scale)", sc.Name),
		Header: []string{"mode", "Balanced Mops/s", "ckpt bytes/op", "DRAM footprint"},
	}, 26, []crpmVariant{
		{core.ModeDefault.String(), core.Options{Mode: core.ModeDefault}},
		{core.ModeBuffered.String(), core.Options{Mode: core.ModeBuffered}},
	}, func(m measured, ctr *core.Container) []string {
		return []string{
			fmtF(float64(ctr.Metrics().CheckpointBytes)/float64(sc.Ops), 1),
			byteSize(ctr.DRAMFootprint()),
		}
	})
}

// AblationEADR reproduces the claim of the paper's footnote 2: on an eADR
// platform, where the CPU cache is in the persistence domain and clwb/fence
// cost almost nothing, the persistence-overhead problem (P2) disappears —
// the fine-grained logging baselines close most of their gap to libcrpm,
// whose advantage came from issuing fewer fences.
func AblationEADR(sc Scale) (Table, error) {
	t := Table{
		Title:  fmt.Sprintf("Ablation (footnote 2): balanced throughput (Mops/s) with ADR vs eADR (%s scale)", sc.Name),
		Header: []string{"system", "ADR (volatile cache)", "eADR (durable cache)", "eADR speedup"},
	}
	systems := []string{"Undo-log", "LMC", "libcrpm-Default", "NVM-NP"}
	run := func(sys string) (float64, error) {
		m, err := measureSystem(sys, DSHashMap, sc, Geometry{}, 27, workload.Balanced)
		return m.Throughput / 1e6, err
	}
	// The default cost model is the only mutable global the experiment cells
	// share, so the two phases stay strict barriers: every ADR cell finishes
	// before the model is swapped, and every eADR cell runs under the swapped
	// model before it is restored. Within a phase the cells are independent.
	adr, err := sweep(systems, run)
	if err != nil {
		return t, err
	}
	prev := nvm.SetDefaultCostModel(nvm.EADRCostModel())
	defer nvm.SetDefaultCostModel(prev)
	eadr, err := sweep(systems, run)
	if err != nil {
		return t, err
	}
	for i, sys := range systems {
		t.Rows = append(t.Rows, []string{
			sys,
			fmtF(adr[i], 3),
			fmtF(eadr[i], 3),
			fmtF(eadr[i]/adr[i], 2) + "x",
		})
	}
	t.Notes = append(t.Notes, "eADR is modelled as a cost change only (flush/fence nearly free); crash semantics and protocols are unchanged")
	return t, nil
}
