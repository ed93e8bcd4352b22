package server

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"libcrpm/internal/core"
	"libcrpm/internal/nvm"
)

// TestParsePolicyErrors is the table-driven contract of the policy parser:
// every malformed spec — including zero and negative pause budgets — fails
// with an error wrapping ErrBadPolicy, and every valid spec round-trips.
func TestParsePolicyErrors(t *testing.T) {
	good := []struct {
		spec string
		want Policy
	}{
		{"ops:4096", OpsPolicy{Every: 4096}},
		{"interval:8ms", IntervalPolicy{Every: 8 * time.Millisecond}},
		{"dirty:1048576", DirtyBytesPolicy{Bytes: 1 << 20}},
		{"pause:2us", NewPausePolicy(2 * time.Microsecond)},
		{"pause:500ns", NewPausePolicy(500 * time.Nanosecond)},
		{"pause:1ms", NewPausePolicy(time.Millisecond)},
	}
	for _, c := range good {
		got, err := ParsePolicy(c.spec)
		if err != nil || got != c.want {
			t.Fatalf("ParsePolicy(%q) = %v, %v; want %v", c.spec, got, err, c.want)
		}
	}
	bad := []string{
		"",            // empty
		"ops",         // no colon
		"ops:",        // empty arg
		"ops:0",       // zero count
		"ops:-5",      // negative count
		"ops:x",       // not a number
		"interval:0s", // zero duration
		"interval:-1s",
		"dirty:0",
		"dirty:-1",
		"pause:0",    // zero budget
		"pause:0s",   // zero budget, unit form
		"pause:-1us", // negative budget
		"pause:",     // empty budget
		"pause:soon", // not a duration
		"epoch:5",    // unknown kind
	}
	for _, spec := range bad {
		_, err := ParsePolicy(spec)
		if err == nil {
			t.Fatalf("ParsePolicy(%q) should fail", spec)
		}
		if !errors.Is(err, ErrBadPolicy) {
			t.Fatalf("ParsePolicy(%q) error %v does not wrap ErrBadPolicy", spec, err)
		}
	}
}

// TestPausePolicyQuantum pins the budget-to-quantum derivation: the
// quantum is the number of cache lines one budget's worth of clwb retires,
// floored at one line.
func TestPausePolicyQuantum(t *testing.T) {
	clwb := nvm.DefaultCostModel().CLWBPS
	cases := []struct {
		budget time.Duration
		want   uint64
	}{
		{2 * time.Microsecond, uint64(2000*1000/clwb) * nvm.LineSize},
		{time.Nanosecond, nvm.LineSize}, // floors at one line
	}
	for _, c := range cases {
		p := NewPausePolicy(c.budget)
		if p.QuantumBytes != c.want {
			t.Fatalf("NewPausePolicy(%v).QuantumBytes = %d, want %d", c.budget, p.QuantumBytes, c.want)
		}
		if p.Budget != c.budget {
			t.Fatalf("NewPausePolicy(%v).Budget = %v", c.budget, p.Budget)
		}
	}
}

// TestStepBudgetValidation: a negative explicit budget is a config error; a
// pause policy with no explicit budget adopts its own quantum.
func TestStepBudgetValidation(t *testing.T) {
	cfg := smallCfg()
	cfg.StepBudget = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("negative StepBudget should fail")
	}
}

// incCfg is smallCfg on the incremental pipeline: a pause policy supplies
// both the cut trigger and the per-quantum budget.
func incCfg() Config {
	cfg := smallCfg()
	cfg.Policy = NewPausePolicy(2 * time.Microsecond)
	return cfg
}

// TestIncrementalServiceCleanRun: both container modes serve to completion
// under the pause policy with the shadow exactly matching on every shard
// and cuts actually happening through the pipeline.
func TestIncrementalServiceCleanRun(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeDefault, core.ModeBuffered} {
		cfg := incCfg()
		cfg.Mode = mode
		res := mustRun(t, cfg)
		if !res.OK() {
			t.Fatalf("mode %v: %d violations, first: %v", mode, len(res.Violations), res.Violations[0])
		}
		if res.TotalOps != uint64(cfg.Ops) {
			t.Fatalf("mode %v: acked %d of %d ops", mode, res.TotalOps, cfg.Ops)
		}
		if res.Cuts < 2 {
			t.Fatalf("mode %v: only %d cuts", mode, res.Cuts)
		}
		for _, st := range res.Shards {
			if st.Epoch != res.Shards[0].Epoch {
				t.Fatalf("mode %v: shard %d at epoch %d, shard 0 at %d", mode, st.Shard, st.Epoch, res.Shards[0].Epoch)
			}
		}
	}
}

// TestIncrementalServicePauseBelowInterval is the headline claim in
// miniature: at the same scale, the worst shard's p99 cut pause under the
// pause policy sits well below the stop-the-world interval policy's.
func TestIncrementalServicePauseBelowInterval(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeDefault, core.ModeBuffered} {
		stw := smallCfg()
		stw.Mode = mode
		stw.Policy = IntervalPolicy{Every: 200 * time.Microsecond}
		inc := incCfg()
		inc.Mode = mode
		resSTW, resInc := mustRun(t, stw), mustRun(t, inc)
		if !resSTW.OK() || !resInc.OK() {
			t.Fatalf("mode %v: inconsistent run", mode)
		}
		worst := func(r *Result) int64 {
			var m int64
			for _, st := range r.Shards {
				if st.P99PausePS > m {
					m = st.P99PausePS
				}
			}
			return m
		}
		w, i := worst(resSTW), worst(resInc)
		if i >= w {
			t.Fatalf("mode %v: incremental p99 pause %d ps not below interval %d ps", mode, i, w)
		}
	}
}

// TestIncrementalServiceDeterminism: the full Result under the pause
// policy is identical across verification parallelism and repeated runs.
func TestIncrementalServiceDeterminism(t *testing.T) {
	base := incCfg()
	var results []*Result
	for _, par := range []int{1, 8, 1} {
		cfg := base
		cfg.Parallel = par
		results = append(results, mustRun(t, cfg))
	}
	for i, r := range results[1:] {
		if !reflect.DeepEqual(results[0], r) {
			t.Fatalf("run %d differs from run 0:\n%+v\nvs\n%+v", i+1, results[0], r)
		}
	}
}

// TestIncrementalServiceCrashRecovery: crashes injected throughout a
// shard's serving span — which under the pause policy lands inside
// in-flight cuts, staged replays, and quarantine lifts — must recover to a
// consistent global epoch and keep serving.
func TestIncrementalServiceCrashRecovery(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeDefault, core.ModeBuffered} {
		cfg := incCfg()
		cfg.Ops = 3000
		cfg.Mode = mode
		ref := newService(t, cfg)
		if _, err := ref.Run(); err != nil {
			t.Fatal(err)
		}
		spans := ref.PrimitiveSpans()
		for _, shard := range []int{0, 2} {
			base, end := spans[shard][0], spans[shard][1]
			if end <= base {
				t.Fatalf("mode %v shard %d: empty serving span", mode, shard)
			}
			for _, at := range []int64{base + 1, base + (end-base)/3, base + (end-base)/2, base + 2*(end-base)/3, end - 1} {
				ccfg := cfg
				ccfg.Crash = &CrashSpec{Shard: shard, At: at}
				res := mustRun(t, ccfg)
				if !res.Recovered {
					t.Fatalf("mode %v shard %d at %d: not recovered: %v", mode, shard, at, res.Violations)
				}
				if !res.OK() {
					t.Fatalf("mode %v shard %d at %d: %d violations, first: %v",
						mode, shard, at, len(res.Violations), res.Violations[0])
				}
			}
		}
	}
}
