package harness

import (
	"fmt"

	"libcrpm/internal/core"
	"libcrpm/internal/measure"
	"libcrpm/internal/sched"
	"libcrpm/internal/server"
	"libcrpm/internal/workload"
)

// sloTargetsMops is the offered-load ladder of the SLO study, Mops/s. The
// small-scale 4-shard service delivers roughly 2-5 Mops/s closed-loop, so
// the ladder straddles saturation: the low rungs measure genuine open-loop
// latency, the high rungs show achieved throughput flattening while the
// omission-free p99 explodes — the knee a capacity planner reads off the
// curve.
var sloTargetsMops = []float64{1, 2, 4, 8, 16}

// sloShards and sloClients fix the service geometry of every cell, so the
// curve varies only offered load and (backend, cut policy).
const (
	sloShards  = 4
	sloClients = 8
)

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
	setups := []struct {
		name    string
		backend string
		mode    core.Mode
		policy  server.Policy
	}{
		{"Default/interval", "", core.ModeDefault, server.IntervalPolicy{Every: sc.Interval}},
		{"Default/pause-inc", "", core.ModeDefault, server.NewPausePolicy(servicePauseBudget)},
		{"Buffered/interval", "", core.ModeBuffered, server.IntervalPolicy{Every: sc.Interval}},
		{"InCLL/ops", server.BackendInCLL, core.ModeDefault, server.OpsPolicy{Every: 8192}},
	}
	t := Table{
		Title:  fmt.Sprintf("SLO: open-loop throughput vs p99 latency per backend x cut policy, YCSB-A, %d shards (%s scale)", sloShards, sc.Name),
		Header: []string{"setup", "metric"},
		Notes: []string{
			"open-loop: latency charged from each op's intended arrival on the target-throughput schedule (coordinated-omission-free); service: from dispatch",
			fmt.Sprintf("warmup %d ops excluded; pause-inc rows run the incremental cut pipeline under pause:%s", sc.Ops/10, servicePauseBudget),
		},
	}
	for _, tgt := range sloTargetsMops {
		t.Header = append(t.Header, fmt.Sprintf("%gMops/s", tgt))
	}
	heap, buckets := perShardGeometry(sc, sloShards)
	type cellRes struct {
		achievedMops, openP99US, svcP99US float64
	}
	cells, err := sched.MapErr(len(setups)*len(sloTargetsMops), pool(), func(i int) (cellRes, error) {
		st, tgt := setups[i/len(sloTargetsMops)], sloTargetsMops[i%len(sloTargetsMops)]
		_, res, err := runServiceCell(fmt.Sprintf("%s@%gMops", st.name, tgt), server.Config{
			Shards:   sloShards,
			Clients:  sloClients,
			Mix:      workload.YCSBA,
			Ops:      sc.Ops,
			Keys:     sc.Keys,
			HeapSize: heap,
			Buckets:  buckets,
			Backend:  st.backend,
			Mode:     st.mode,
			Policy:   st.policy,
			Measure:  &measure.Config{TargetOps: tgt * 1e6, WarmupOps: sc.Ops / 10},
			Seed:     11,
		})
		if err != nil {
			return cellRes{}, err
		}
		m := res.Measure
		if m == nil || m.MeasuredOps == 0 {
			return cellRes{}, fmt.Errorf("%s@%gMops: empty measurement report", st.name, tgt)
		}
		return cellRes{
			achievedMops: m.AchievedOps / 1e6,
			openP99US:    float64(m.OpenAll.P99PS) / 1e6,
			svcP99US:     float64(m.ServiceAll.P99PS) / 1e6,
		}, nil
	})
	if err != nil {
		return t, err
	}
	for si, st := range setups {
		achieved := []string{st.name, "achieved Mops/s"}
		open := []string{st.name, "open p99 us"}
		svcRow := []string{st.name, "service p99 us"}
		for ti, tgt := range sloTargetsMops {
			c := cells[si*len(sloTargetsMops)+ti]
			achieved = append(achieved, fmtF(c.achievedMops, 3))
			open = append(open, fmtF(c.openP99US, 1))
			svcRow = append(svcRow, fmtF(c.svcP99US, 1))
			t.AddMetric(fmt.Sprintf("slo_achieved_mops/%s/%g", st.name, tgt), c.achievedMops)
			t.AddMetric(fmt.Sprintf("slo_open_p99_us/%s/%g", st.name, tgt), c.openP99US)
			t.AddMetric(fmt.Sprintf("slo_svc_p99_us/%s/%g", st.name, tgt), c.svcP99US)
		}
		t.Rows = append(t.Rows, achieved, open, svcRow)
	}
	return t, nil
}
