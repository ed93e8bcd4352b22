package server

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"libcrpm/internal/measure"
	"libcrpm/internal/nvm"
	"libcrpm/internal/workload"
)

// measuredCfg is smallCfg with the open-loop rig at the given offered
// load. The ops policy keeps cuts frequent, so the run contains many
// stop-the-world pauses for the schedule to collide with.
func measuredCfg(targetOps float64) Config {
	cfg := smallCfg()
	cfg.Ops = 40_000
	cfg.Keys = 4_000
	cfg.Policy = OpsPolicy{Every: 2048}
	cfg.Measure = &measure.Config{TargetOps: targetOps, WarmupOps: 2_000}
	return cfg
}

// TestOpenLoopDominatesServiceP99 is the coordinated-omission property
// test: under offered load high enough that requests queue behind the
// stop-the-world cut pauses, the open-loop p99 (charged from intended
// arrival) must strictly dominate the closed-loop service-time p99
// (charged from dispatch) — the service-time histogram silently forgives
// exactly the queueing the pauses cause. Per-op, open latency can never be
// below service latency, so every open quantile must also weakly dominate.
func TestOpenLoopDominatesServiceP99(t *testing.T) {
	res := mustRun(t, measuredCfg(20e6)) // well past saturation
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	m := res.Measure
	if m == nil || m.MeasuredOps == 0 {
		t.Fatal("no measurement report")
	}
	if m.OpenAll.P99PS <= m.ServiceAll.P99PS {
		t.Fatalf("open-loop p99 %d ps does not dominate service-time p99 %d ps: coordinated omission uncorrected",
			m.OpenAll.P99PS, m.ServiceAll.P99PS)
	}
	// The gap must be pause-scale (at least one cut pause, ~100 µs at this
	// config), not bucket noise.
	if gap := m.OpenAll.P99PS - m.ServiceAll.P99PS; gap < 50_000_000 {
		t.Fatalf("open-vs-service p99 gap %d ps is below pause scale", gap)
	}
	for _, q := range []struct {
		name      string
		open, svc int64
	}{
		{"p50", m.OpenAll.P50PS, m.ServiceAll.P50PS},
		{"p95", m.OpenAll.P95PS, m.ServiceAll.P95PS},
		{"p999", m.OpenAll.P999PS, m.ServiceAll.P999PS},
		{"max", m.OpenAll.MaxPS, m.ServiceAll.MaxPS},
	} {
		if q.open < q.svc {
			t.Fatalf("open %s %d ps below service %s %d ps; per-op open latency can never be smaller",
				q.name, q.open, q.name, q.svc)
		}
	}
}

// TestMeasureReportShape pins the bookkeeping: warmup exclusion, per-kind
// tracks for the exercised kinds, a non-empty timeseries, and achieved
// throughput tracking the offered load while unsaturated.
func TestMeasureReportShape(t *testing.T) {
	cfg := measuredCfg(1e6) // far below the ~5 Mops/s capacity
	res := mustRun(t, cfg)
	m := res.Measure
	if m == nil {
		t.Fatal("no measurement report")
	}
	if m.WarmupOps != 2_000 || m.MeasuredOps != int64(cfg.Ops-2_000) {
		t.Fatalf("warmup=%d measured=%d, want 2000/%d", m.WarmupOps, m.MeasuredOps, cfg.Ops-2_000)
	}
	kinds := func(ks []measure.KindStat) []string {
		var out []string
		for _, k := range ks {
			out = append(out, k.Kind)
		}
		return out
	}
	want := []string{"read", "update"} // YCSB-A
	if got := kinds(m.Open); !reflect.DeepEqual(got, want) {
		t.Fatalf("open tracks %v, want %v", got, want)
	}
	if got := kinds(m.Service); !reflect.DeepEqual(got, want) {
		t.Fatalf("service tracks %v, want %v", got, want)
	}
	if m.OpenAll.N != m.MeasuredOps {
		t.Fatalf("open histogram holds %d ops, measured %d", m.OpenAll.N, m.MeasuredOps)
	}
	if len(m.Intervals) == 0 {
		t.Fatal("no timeseries intervals")
	}
	var ivOps int64
	for _, iv := range m.Intervals {
		ivOps += iv.Ops
	}
	if ivOps != m.MeasuredOps {
		t.Fatalf("intervals hold %d ops, measured %d", ivOps, m.MeasuredOps)
	}
	// Unsaturated: achieved throughput must track the offered load closely.
	if m.AchievedOps < 0.9e6 || m.AchievedOps > 1.1e6 {
		t.Fatalf("achieved %.0f ops/s at 1e6 offered while unsaturated", m.AchievedOps)
	}
}

// TestMeasureDeterministic: the report is a pure function of the config —
// identical across repeated runs and across verification parallelism.
func TestMeasureDeterministic(t *testing.T) {
	a := mustRun(t, measuredCfg(4e6))
	b := mustRun(t, measuredCfg(4e6))
	if !reflect.DeepEqual(a.Measure, b.Measure) {
		t.Fatal("measurement report differs between identical runs")
	}
	cfg := measuredCfg(4e6)
	cfg.Parallel = 1
	c := mustRun(t, cfg)
	if !reflect.DeepEqual(a.Measure, c.Measure) {
		t.Fatal("measurement report depends on Parallel")
	}
}

// TestMeasureGroupCommit drives the rig through the incremental cut
// pipeline, whose acks defer to quantum fences (the pendAck path).
func TestMeasureGroupCommit(t *testing.T) {
	cfg := measuredCfg(4e6)
	cfg.Policy = NewPausePolicy(2_000) // 2 µs budget
	res := mustRun(t, cfg)
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	m := res.Measure
	if m == nil || m.OpenAll.N != m.MeasuredOps {
		t.Fatalf("group-commit run lost measured acks: %+v", m)
	}
	if m.OpenAll.P99PS < m.ServiceAll.P99PS {
		t.Fatal("open p99 below service p99 under group commit")
	}
}

// TestMeasureTimeBounded: with Ops unset, the op count follows from the
// offered load and duration.
func TestMeasureTimeBounded(t *testing.T) {
	cfg := measuredCfg(2e6)
	cfg.Ops = 0
	cfg.Measure.DurationPS = 5_000_000_000 // 5 ms at 2 Mops/s = 10000 measured
	res := mustRun(t, cfg)
	if res.TotalOps != 12_000 { // + 2000 warmup
		t.Fatalf("time-bounded run served %d ops, want 12000", res.TotalOps)
	}
	if res.Measure.MeasuredOps != 10_000 {
		t.Fatalf("measured %d ops, want 10000", res.Measure.MeasuredOps)
	}
}

// TestMeasureValidation pins the rig's config rejections.
func TestMeasureValidation(t *testing.T) {
	cfg := measuredCfg(0) // zero target
	if _, err := New(cfg); !errors.Is(err, measure.ErrBadConfig) {
		t.Fatalf("zero target: got %v, want ErrBadConfig", err)
	}
	cfg = measuredCfg(1e6)
	cfg.Replicas = 1
	if _, err := New(cfg); !errors.Is(err, ErrMeasureReplicas) {
		t.Fatalf("measure+replicas: got %v, want ErrMeasureReplicas", err)
	}
	cfg = measuredCfg(1e6)
	cfg.Ops = 0 // no duration either: no op count derivable
	if _, err := New(cfg); !errors.Is(err, ErrNoOps) {
		t.Fatalf("no ops, no duration: got %v, want ErrNoOps", err)
	}
}

// TestMeasureMixDistributions smoke-runs the rig across the new key
// distributions end to end: every stream stays consistent and measured.
func TestMeasureMixDistributions(t *testing.T) {
	for _, d := range []workload.Dist{workload.DistUniform, workload.DistHotspot, workload.DistExponential, workload.DistLatest} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			t.Parallel()
			cfg := measuredCfg(2e6)
			cfg.Ops = 12_000
			cfg.Measure.WarmupOps = 1_000
			cfg.Mix.Dist = d
			res := mustRun(t, cfg)
			if !res.OK() {
				t.Fatalf("violations: %v", res.Violations)
			}
			if res.Measure.MeasuredOps != 11_000 {
				t.Fatalf("measured %d ops", res.Measure.MeasuredOps)
			}
		})
	}
}

// ackHoldCfg is an open-loop run below the knee under pause:B: uniform
// keys over a write-heavy mix keep incremental cuts in flight most of the
// time, so nearly every write is acknowledged through the group commit.
func ackHoldCfg(batchOps int) Config {
	cfg := measuredCfg(1e6) // four shards at ~25 % utilisation
	cfg.Ops = 160_000
	cfg.Mix.Dist = workload.DistUniform
	cfg.BatchOps = batchOps
	cfg.Policy = NewPausePolicy(2 * time.Microsecond)
	return cfg
}

// TestAckHoldBoundedByQuantum is the tentpole's contract: below the knee a
// request acknowledged through the group commit waits for a checkpoint
// quantum in the next idle gap, not for the batch boundary. So the
// service-time tail is a small multiple of the pause budget B plus one
// fence, and it is not a function of BatchOps — before idle-gap quanta,
// service p50/p99 were half of and all of one batch's duration (512 µs and
// 4 ms at these two batch sizes). The two runs are not bucket-identical —
// a larger batch spends more of each cut drained and waiting for its
// boundary commit, where acks are free — so the test pins what must hold:
// the same median, and a p99 and a max inside the same quantum-scale
// bounds at an 8x batch size.
func TestAckHoldBoundedByQuantum(t *testing.T) {
	const budgetPS = 2_000_000
	fencePS := nvm.DefaultCostModel().SFencePS
	var p50 int64
	for _, batchOps := range []int{512, 4096} {
		res := mustRun(t, ackHoldCfg(batchOps))
		if !res.OK() {
			t.Fatalf("BatchOps %d: violations: %v", batchOps, res.Violations)
		}
		if res.Cuts < 8 {
			t.Fatalf("BatchOps %d: only %d cuts; the run must spend its time inside incremental cuts", batchOps, res.Cuts)
		}
		m := res.Measure
		t.Logf("BatchOps %d: %d cuts, service p50/p95/p99/max %d/%d/%d/%d ps, open p99 %d ps", batchOps, res.Cuts,
			m.ServiceAll.P50PS, m.ServiceAll.P95PS, m.ServiceAll.P99PS, m.ServiceAll.MaxPS, m.OpenAll.P99PS)
		if limit := 2*budgetPS + fencePS; m.ServiceAll.P99PS > limit {
			t.Fatalf("BatchOps %d: service p99 %d ps exceeds 2 quanta + one fence (%d ps)", batchOps, m.ServiceAll.P99PS, limit)
		}
		if limit := 4*budgetPS + fencePS; m.ServiceAll.MaxPS > limit || m.OpenAll.P99PS > limit {
			t.Fatalf("BatchOps %d: service max %d ps / open p99 %d ps exceed 4 quanta + one fence (%d ps): acks are held past the idle gap",
				batchOps, m.ServiceAll.MaxPS, m.OpenAll.P99PS, limit)
		}
		if p50 == 0 {
			p50 = m.ServiceAll.P50PS
		} else if m.ServiceAll.P50PS != p50 {
			t.Fatalf("service p50 depends on BatchOps: %d ps at 512, %d ps at 4096", p50, m.ServiceAll.P50PS)
		}
	}
}

// TestIdleGapQuantaInTrace shows where the saving sits: with the open-loop
// rig on, checkpoint quanta run between requests inside a batch — far more
// ckpt-step/ckpt-replay spans than batch boundaries — and a quantum that
// retires nothing leaves no span behind.
func TestIdleGapQuantaInTrace(t *testing.T) {
	cfg := ackHoldCfg(512)
	cfg.Trace = true
	res := mustRun(t, cfg)
	batches := (cfg.Ops + cfg.BatchOps - 1) / cfg.BatchOps
	for _, tr := range res.Trace.Tracks {
		quanta := 0
		for _, sp := range tr.Spans {
			if sp.Name != "ckpt-step" && sp.Name != "ckpt-replay" {
				continue
			}
			quanta++
			if sp.Ticks <= 0 {
				t.Fatalf("%s: zero-length %s span at %d ps", tr.Label, sp.Name, sp.Start)
			}
		}
		// A boundary runs at most one quantum, so anything beyond one per
		// batch ran in an idle gap.
		if quanta < 4*batches {
			t.Fatalf("%s: %d checkpoint quanta over %d batches; quanta are not filling idle gaps", tr.Label, quanta, batches)
		}
	}
}
