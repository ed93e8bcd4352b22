package measure

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"libcrpm/internal/obs"
	"libcrpm/internal/workload"
)

func TestLogBoundsShape(t *testing.T) {
	const sub = 32
	b := LogBounds(1_000, sub, 4_400_000_000_000)
	if b[0] != 1_000 {
		t.Fatalf("first bound %d, want 1000", b[0])
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not strictly ascending at %d: %d after %d", i, b[i], b[i-1])
		}
		// Log-linear promise: one sub-bucket step is at most 1/sub of the
		// octave base, i.e. relative error is bounded by ~1/sub.
		if gap, limit := b[i]-b[i-1], b[i-1]/sub+1; gap > limit {
			t.Fatalf("bucket gap %d at %d exceeds log-linear limit %d (bound %d)", gap, i, limit, b[i-1])
		}
	}
	if last := b[len(b)-1]; last < 4_400_000_000_000 {
		t.Fatalf("bounds top out at %d, do not cover 4.4s", last)
	}
}

// TestQuantileMatchesExactRank pins the quantile convention: the reported
// quantile is the upper bound of the bucket containing the ranked
// observation (rank = floor(q*n) clamped to [1, n]), with the exact max
// for the overflow bucket. This is the same math as the private server
// histogram this package replaced, so the unification changed no output.
func TestQuantileMatchesExactRank(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := obs.NewHistogram(LatencyBounds)
	var samples []int64
	for i := 0; i < 20_000; i++ {
		// Spread across many octaves, including overflow territory.
		v := int64(1) << uint(rng.Intn(44))
		v += rng.Int63n(v)
		h.Observe(v)
		samples = append(samples, v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	n := int64(len(samples))
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99, 0.999, 1.0} {
		rank := int64(q * float64(n))
		if rank < 1 {
			rank = 1
		}
		var want int64
		if rank >= n {
			want = samples[n-1]
		} else {
			exact := samples[rank-1]
			i := sort.Search(len(LatencyBounds), func(i int) bool { return exact <= LatencyBounds[i] })
			if i == len(LatencyBounds) {
				want = h.Max()
			} else {
				want = LatencyBounds[i]
			}
		}
		if got := h.Quantile(q); got != want {
			t.Errorf("Quantile(%v) = %d, want %d", q, got, want)
		}
	}
}

func TestHistogramExactSideChannels(t *testing.T) {
	h := obs.NewHistogram(LogBounds(10, 4, 1000))
	for _, v := range []int64{5, 100, 7, 9999} {
		h.Observe(v)
	}
	if h.N() != 4 || h.Sum() != 10111 || h.Max() != 9999 || h.Mean() != 2527 {
		t.Fatalf("side channels: n=%d sum=%d max=%d mean=%d", h.N(), h.Sum(), h.Max(), h.Mean())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := obs.NewHistogram(LatencyBounds)
	if h.Quantile(0.99) != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

func TestMergeEqualsUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a, b, u := obs.NewHistogram(LatencyBounds), obs.NewHistogram(LatencyBounds), obs.NewHistogram(LatencyBounds)
	for i := 0; i < 5_000; i++ {
		v := rng.Int63n(1_000_000_000)
		u.Observe(v)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	// Histograms keep only the buckets they saw, with slack that depends on
	// the order they saw them in, so the two are compared by what they
	// report: the same quantile at every rank is the same bucket counts.
	if a.N() != u.N() || a.Sum() != u.Sum() || a.Max() != u.Max() || a.Mean() != u.Mean() {
		t.Fatalf("merged N %d Sum %d Max %d Mean %d, union %d %d %d %d", a.N(), a.Sum(), a.Max(), a.Mean(), u.N(), u.Sum(), u.Max(), u.Mean())
	}
	for r := int64(0); r <= u.N(); r++ {
		if q := float64(r) / float64(u.N()); a.Quantile(q) != u.Quantile(q) {
			t.Fatalf("merged histogram differs from union histogram at rank %d: %d vs %d", r, a.Quantile(q), u.Quantile(q))
		}
	}
	bad := obs.NewHistogram(LogBounds(10, 4, 100))
	bad.Observe(1)
	if err := a.Merge(bad); err == nil {
		t.Fatal("merging mismatched bounds must fail")
	}
}

func TestConfigDefaultsAndOps(t *testing.T) {
	if _, err := (Config{}).WithDefaults(); err == nil {
		t.Fatal("zero target must be rejected")
	}
	if _, err := (Config{TargetOps: 1e6, WarmupOps: -1}).WithDefaults(); err == nil {
		t.Fatal("negative warmup must be rejected")
	}
	cfg, err := Config{TargetOps: 2e6, WarmupOps: 100, DurationPS: 10_000_000_000}.WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.IntervalPS != DefaultIntervalPS {
		t.Fatalf("defaults not filled: %+v", cfg)
	}
	// 2 Mops/s for 10 ms = 20000 measured arrivals, plus warmup.
	if got := cfg.Ops(); got != 20_100 {
		t.Fatalf("time-bounded ops = %d, want 20100", got)
	}
	if (Config{TargetOps: 2e6}).Ops() != 0 {
		t.Fatal("op-bounded config must derive no op count")
	}
}

func TestScheduleIntended(t *testing.T) {
	cfg, err := Config{TargetOps: 1e6}.WithDefaults() // 1 op/µs
	if err != nil {
		t.Fatal(err)
	}
	s := NewSchedule(5_000, cfg)
	if s.PeriodPS != 1_000_000 {
		t.Fatalf("period %d ps, want 1e6", s.PeriodPS)
	}
	if got := s.IntendedPS(0); got != 5_000 {
		t.Fatalf("IntendedPS(0) = %d", got)
	}
	if got := s.IntendedPS(3); got != 5_000+3_000_000 {
		t.Fatalf("IntendedPS(3) = %d", got)
	}
}

func TestCollectorWarmupIntervalsAndReport(t *testing.T) {
	cfg, err := Config{TargetOps: 1e6, WarmupOps: 10, IntervalPS: 10_000_000}.WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	sched := NewSchedule(0, cfg)
	c := NewCollector(cfg, sched)
	// 10 warmup ops then 30 measured ops, one per period; every op takes
	// 500 ns of service and queues 500 ns behind schedule.
	for seq := 0; seq < 40; seq++ {
		intended := sched.IntendedPS(seq)
		start := intended + 500_000
		done := start + 500_000
		kind := workload.OpRead
		if seq%2 == 1 {
			kind = workload.OpUpdate
		}
		c.Observe(kind, seq, intended, start, done)
	}
	r := c.Report(cfg.TargetOps)
	if r.WarmupOps != 10 || r.MeasuredOps != 30 {
		t.Fatalf("warmup=%d measured=%d", r.WarmupOps, r.MeasuredOps)
	}
	if r.StartPS != sched.IntendedPS(10) {
		t.Fatalf("measured window starts at %d, want %d", r.StartPS, sched.IntendedPS(10))
	}
	// Open-loop latency is charged from intended start: 1 µs per op;
	// service time from dispatch: 500 ns per op.
	if r.OpenAll.MeanPS != 1_000_000 || r.ServiceAll.MeanPS != 500_000 {
		t.Fatalf("open mean %d, service mean %d", r.OpenAll.MeanPS, r.ServiceAll.MeanPS)
	}
	if len(r.Open) != 2 || r.Open[0].Kind != "read" || r.Open[1].Kind != "update" {
		t.Fatalf("per-kind tracks: %+v", r.Open)
	}
	// 30 measured arrivals at 1 op/µs over 10 µs buckets = 3 intervals.
	if len(r.Intervals) != 3 {
		t.Fatalf("intervals: %+v", r.Intervals)
	}
	for _, iv := range r.Intervals {
		if iv.Ops != 10 {
			t.Fatalf("interval %d has %d ops, want 10", iv.Index, iv.Ops)
		}
	}
	if r.AchievedOps <= 0 {
		t.Fatal("achieved throughput must be positive")
	}
}

func TestCollectorMergeMatchesSingle(t *testing.T) {
	cfg, err := Config{TargetOps: 5e6, WarmupOps: 50}.WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	sched := NewSchedule(123, cfg)
	whole := NewCollector(cfg, sched)
	a, b := NewCollector(cfg, sched), NewCollector(cfg, sched)
	rng := rand.New(rand.NewSource(3))
	for seq := 0; seq < 2_000; seq++ {
		intended := sched.IntendedPS(seq)
		start := intended + rng.Int63n(1_000_000)
		done := start + 1_000 + rng.Int63n(2_000_000)
		kind := workload.OpKind(rng.Intn(int(workload.OpDelete) + 1))
		whole.Observe(kind, seq, intended, start, done)
		if seq%3 == 0 {
			a.Observe(kind, seq, intended, start, done)
		} else {
			b.Observe(kind, seq, intended, start, done)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if got, want := a.Report(cfg.TargetOps), whole.Report(cfg.TargetOps); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged report differs from single-collector report:\n%+v\nvs\n%+v", got, want)
	}
}

func TestNilCollectorIsNoOp(t *testing.T) {
	var c *Collector
	c.Observe(workload.OpRead, 0, 0, 0, 0) // must not panic
}
