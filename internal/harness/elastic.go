package harness

import (
	"fmt"

	"libcrpm/internal/measure"
	"libcrpm/internal/server"
)

// elasticIntervalPS is the timeseries bucket width of the elastic study:
// 0.1 ms of simulated time, fine enough that the migration window (ship
// latency plus a few cut rounds) spans multiple buckets.
const elasticIntervalPS = 100_000_000

// elasticTargetMops is the offered load of every elastic cell, Mops/s —
// below the 2-shard boot capacity so the before-phase p99 reflects
// genuine open-loop latency, and the during-phase excursion (snapshot
// publish, delta catch-up, flip barrier) stands out against it.
const elasticTargetMops = 1.0

// elasticStepBudget is the per-quantum byte budget of the incremental
// row group: the same ops-policy cadence as the stop-the-world group, but
// each cut drains through the quantum pipeline in 256 KiB steps, so the
// ring flip rides a commit transition instead of a pause. The budget is
// sized so a full cut commits within a few request batches: the
// migration advances one phase per committed cut, and the flip has to
// land inside the measured window, not trail the run.
const elasticStepBudget = 256 << 10

// elasticMinAfter is the least number of timeseries intervals the after
// window must hold (2 ms). The figure's run is sized from its own flip: a
// run that ends before the migration has flipped — or right behind it —
// has no after window to report, so the cell is served again at twice the
// length until it has one. Every attempt is a pure function of its config,
// so the figure stays byte-identical at any -parallel.
const elasticMinAfter = 20

// elasticMaxDoublings bounds that search; a flip that has not landed in
// 16x the scale's op count is a bug, reported as one.
const elasticMaxDoublings = 4

// ElasticFigure is the elastic-resharding study (extension): one 2-shard
// service runs YCSB-A open-loop while a live split carves half of shard
// 0's ring slots onto a freshly spawned shard 2 — checkpoint-seeded
// snapshot ship, delta catch-up, then an atomic ring flip at a
// coordinated cut. The migration's StartPS/FlipPS timestamps cut the
// measured timeseries into before/during/after windows; each row group
// reports achieved throughput and the worst-interval omission-free p99
// per window. One group per cut style: stop-the-world ops-policy cuts
// and the incremental quantum pipeline (where the flip rides the commit
// transition of a budgeted step sequence instead of a pause).
func ElasticFigure(sc Scale) (Table, error) {
	type elasticSetup struct {
		name       string
		stepBudget int
	}
	setups := []elasticSetup{{"stw-cut", 0}, {"inc-pipeline", elasticStepBudget}}
	phases := []string{"before", "during", "after"}
	t := Table{
		Title:  fmt.Sprintf("Elastic: live split under open-loop load, throughput and p99 before/during/after the migration (%s scale)", sc.Name),
		Header: []string{"setup", "phase", "sim ms", "achieved Mops/s", "worst open p99 us", "moved keys"},
		Notes: []string{
			fmt.Sprintf("YCSB-A at %gMops/s offered, 2 boot shards, split 0>2 after 2 cuts; windows cut at the migration's start and ring-flip timestamps", elasticTargetMops),
			fmt.Sprintf("p99 is the worst %gms interval of the window, omission-free (charged from intended arrival)", float64(elasticIntervalPS)/1e9),
		},
	}
	type window struct {
		simMS, mops, p99US float64
		intervals          int
	}
	type cellRes struct {
		win       [3]window
		movedKeys int
	}
	cells, err := sweep(setups, func(st elasticSetup) (cellRes, error) {
		for ops := sc.Ops; ; ops *= 2 {
			cfg := serviceConfig(sc, 2, serviceSetup{})
			cfg.Ops = ops
			cfg.Seed = 13
			cfg.Policy = server.OpsPolicy{Every: 4096}
			cfg.StepBudget = st.stepBudget
			cfg.Migrations = []server.MigrateSpec{{Kind: server.MigrateSplit, Src: 0, AfterCuts: 2}}
			cfg.Measure = &measure.Config{
				TargetOps:  elasticTargetMops * 1e6,
				WarmupOps:  sc.Ops / 20,
				IntervalPS: elasticIntervalPS,
			}
			res, err := runServiceCell(cfg)
			if err != nil {
				return cellRes{}, err
			}
			if len(res.Migrations) != 1 {
				return cellRes{}, fmt.Errorf("recorded %d migrations, want 1", len(res.Migrations))
			}
			m := res.Migrations[0]
			rep := res.Measure
			if rep == nil || len(rep.Intervals) == 0 {
				return cellRes{}, fmt.Errorf("empty measurement report")
			}
			var c cellRes
			c.movedKeys = m.MovedKeys
			for _, iv := range rep.Intervals {
				w := 0
				switch {
				case iv.StartPS < m.StartPS:
					w = 0
				case iv.StartPS < m.FlipPS:
					w = 1
				default:
					w = 2
				}
				c.win[w].intervals++
				c.win[w].simMS += float64(rep.IntervalPS) / 1e9
				c.win[w].mops += float64(iv.Ops)
				if p := float64(iv.OpenP99PS) / 1e6; p > c.win[w].p99US {
					c.win[w].p99US = p
				}
			}
			if c.win[2].intervals < elasticMinAfter {
				if ops >= sc.Ops<<elasticMaxDoublings {
					return cellRes{}, fmt.Errorf("the split had not flipped %d intervals before the end of a %d-op run", elasticMinAfter, ops)
				}
				continue
			}
			for w := range c.win {
				if c.win[w].simMS > 0 {
					// ops over simMS milliseconds -> Mops/s = ops / (simMS * 1e3).
					c.win[w].mops = c.win[w].mops / (c.win[w].simMS * 1e3)
				}
			}
			return c, nil
		}
	})
	if err != nil {
		return t, err
	}
	for si, st := range setups {
		c := cells[si]
		for w, phase := range phases {
			moved := ""
			if phase == "during" {
				moved = fmt.Sprintf("%d", c.movedKeys)
			}
			t.Rows = append(t.Rows, []string{
				st.name, phase,
				fmtF(c.win[w].simMS, 1),
				fmtF(c.win[w].mops, 3),
				fmtF(c.win[w].p99US, 1),
				moved,
			})
			t.AddMetric(fmt.Sprintf("elastic_mops/%s/%s", st.name, phase), c.win[w].mops)
			t.AddMetric(fmt.Sprintf("elastic_p99_us/%s/%s", st.name, phase), c.win[w].p99US)
		}
	}
	return t, nil
}
