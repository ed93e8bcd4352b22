package harness

import (
	"fmt"

	"libcrpm/internal/core"
	"libcrpm/internal/measure"
	"libcrpm/internal/server"
)

// sloTargetsMops is the offered-load ladder of the SLO study, Mops/s. The
// small-scale 4-shard service delivers roughly 2-5 Mops/s closed-loop, so
// the ladder straddles saturation: the low rungs measure genuine open-loop
// latency, the high rungs show achieved throughput flattening while the
// omission-free p99 explodes — the knee a capacity planner reads off the
// curve.
var sloTargetsMops = []float64{1, 2, 4, 8, 16}

// sloShards fixes the service geometry of every cell, so the curve varies
// only offered load and (backend, cut policy).
const sloShards = 4

// SLOFigure is the throughput-vs-p99 study (extension): each cell serves
// YCSB-A open-loop at a target offered load — every request carries an
// intended arrival timestamp on the simulated clock — and reports achieved
// throughput next to the coordinated-omission-free p99 (latency charged
// from intended start, so queueing behind a cut pause is billed to every
// waiting op) and the closed-loop service-time p99 that silently forgives
// that queueing. One row group per backend x cut policy; stop-the-world
// interval cuts, the incremental pause-budget pipeline, and the InCLL
// backend's O(1) epoch-tag cuts bracket the pause spectrum.
func SLOFigure(sc Scale) (Table, error) {
	setups := []serviceSetup{
		{name: "Default/interval", mode: core.ModeDefault},
		{name: "Default/pause-inc", mode: core.ModeDefault, policy: server.NewPausePolicy(servicePauseBudget)},
		{name: "Buffered/interval", mode: core.ModeBuffered},
		{name: "InCLL/ops", backend: server.BackendInCLL, policy: server.OpsPolicy{Every: 8192}},
	}
	t := Table{
		Title:  fmt.Sprintf("SLO: open-loop throughput vs p99 latency per backend x cut policy, YCSB-A, %d shards (%s scale)", sloShards, sc.Name),
		Header: []string{"setup", "metric"},
		Notes: []string{
			"open-loop: latency charged from each op's intended arrival on the target-throughput schedule (coordinated-omission-free); service: from dispatch",
			fmt.Sprintf("warmup %d ops excluded; pause-inc rows run the incremental cut pipeline under pause:%s", sc.Ops/10, servicePauseBudget),
		},
	}
	cols := make([]string, len(sloTargetsMops))
	for i, tgt := range sloTargetsMops {
		t.Header = append(t.Header, fmt.Sprintf("%gMops/s", tgt))
		cols[i] = fmt.Sprintf("%g", tgt)
	}
	cells, err := grid(setups, sloTargetsMops, func(st serviceSetup, tgt float64) (served, error) {
		cfg := serviceConfig(sc, sloShards, st)
		cfg.Measure = &measure.Config{TargetOps: tgt * 1e6, WarmupOps: sc.Ops / 10}
		_, res, err := runServiceCell(cfg)
		if err != nil {
			return served{}, err
		}
		m := res.Measure
		if m == nil || m.MeasuredOps == 0 {
			return served{}, fmt.Errorf("empty measurement report")
		}
		return served{vals: []float64{m.AchievedOps / 1e6, float64(m.OpenAll.P99PS) / 1e6, float64(m.ServiceAll.P99PS) / 1e6}}, nil
	})
	if err != nil {
		return t, err
	}
	metrics := []metric{
		{"achieved Mops/s", "slo_achieved_mops", 3},
		{"open p99 us", "slo_open_p99_us", 1},
		{"service p99 us", "slo_svc_p99_us", 1},
	}
	for si, st := range setups {
		t.addMetricRows(st.name, metrics, cols, cells[si])
	}
	return t, nil
}
