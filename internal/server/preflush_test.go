package server

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"libcrpm/internal/core"
)

// countSpans counts a track's spans of the given name.
func countSpans(t *testing.T, res *Result, shard int, name string) int {
	t.Helper()
	n := 0
	for _, s := range track(t, res, shard).Spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// servingPauseP95 is the nearest-rank p95 over every shard's ckpt-pause
// spans, the populate cut (each track's first) left out.
func servingPauseP95(t *testing.T, res *Result) int64 {
	t.Helper()
	var pauses []int64
	for i := range res.Shards {
		first := true
		for _, s := range track(t, res, i).Spans {
			if s.Name != "ckpt-pause" {
				continue
			}
			if !first {
				pauses = append(pauses, s.Ticks)
			}
			first = false
		}
	}
	if len(pauses) < 20 {
		t.Fatalf("only %d serving cuts: too few for a p95", len(pauses))
	}
	slices.Sort(pauses)
	return pauses[(len(pauses)*95+99)/100-1]
}

// TestGapPreFlush is gap pre-flush's contract under an arrival schedule with
// stop-the-world cuts. Flushing in the gaps between requests takes most of
// the flush out of the cut's pause and changes nothing else: the same keys
// end up on the same shards, every request takes exactly as long from its
// dispatch as it did (the service track, bucket for bucket), and — because a
// gap quantum is sized to fit before the arrival it precedes — no request is
// dispatched later than its arrival on account of one, so the open-loop
// median does not move and no open-loop quantile rises.
//
// That is the contract with every epoch's copy-on-write inline. With the
// copies deferred into the same gaps, as shipped, pre-flush still never makes
// a request wait, but which stores find their segment still quarantined — an
// aside image dearer than a plain store — depends on how far the replay has
// got, that on where the gaps fall, and that on the length of the pauses
// pre-flush shortens: there the service track is held to its quantiles.
func TestGapPreFlush(t *testing.T) {
	for _, inline := range []bool{true, false} {
		run := func(off bool) (*Service, *Result) {
			svc, err := New(openMigCfg())
			if err != nil {
				t.Fatal(err)
			}
			svc.noPreFlush, svc.noDeferCoW = off, inline
			res, err := svc.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK() {
				t.Fatalf("noPreFlush=%v noDeferCoW=%v: violations: %v", off, inline, res.Violations)
			}
			return svc, res
		}
		on, ron := run(false)
		off, roff := run(true)
		for i := range on.shards {
			// Run verified each KV against its shadow: comparing shadows
			// compares KV contents.
			if !reflect.DeepEqual(on.shards[i].shadow.live, off.shards[i].shadow.live) {
				t.Errorf("inline=%v shard %d ends with different keys with and without pre-flush", inline, i)
			}
			if inline && !reflect.DeepEqual(on.shards[i].lat, off.shards[i].lat) {
				t.Errorf("shard %d: service-time histogram differs with and without pre-flush", i)
			}
			if n := countSpans(t, ron, i, "pre-flush"); n == 0 {
				t.Errorf("inline=%v shard %d: no pre-flush span in an open-loop stop-the-world run", inline, i)
			}
			if n := countSpans(t, roff, i, "pre-flush"); n != 0 {
				t.Errorf("inline=%v shard %d: %d pre-flush spans with the mechanism off", inline, i, n)
			}
			for _, r := range []*Result{ron, roff} {
				// The populate pre-copy is neither hook's to switch off.
				if n := countSpans(t, r, i, "pre-copy"); n != 1 {
					t.Errorf("inline=%v shard %d: %d pre-copy spans, want one ahead of the schedule's anchor", inline, i, n)
				}
				if n := countSpans(t, r, i, "ckpt-replay"); (n == 0) != inline {
					t.Errorf("inline=%v shard %d: %d replay quanta", inline, i, n)
				}
			}
		}
		mon, moff := ron.Measure, roff.Measure
		if inline {
			if !reflect.DeepEqual(mon.ServiceAll, moff.ServiceAll) || !reflect.DeepEqual(mon.Service, moff.Service) {
				t.Errorf("service track moved: %+v with pre-flush, %+v without", mon.ServiceAll, moff.ServiceAll)
			}
		} else if a, b := mon.ServiceAll, moff.ServiceAll; a.P50PS != b.P50PS || a.P95PS != b.P95PS || a.P99PS != b.P99PS || a.P999PS != b.P999PS || a.MaxPS != b.MaxPS {
			t.Errorf("copies deferred: service quantiles moved: %+v with pre-flush, %+v without", a, b)
		}
		if mon.OpenAll.P50PS != moff.OpenAll.P50PS {
			t.Errorf("inline=%v: open p50 %d ps with pre-flush, %d without: a request queued behind a gap quantum", inline, mon.OpenAll.P50PS, moff.OpenAll.P50PS)
		}
		for _, q := range []struct {
			name    string
			on, off int64
		}{
			{"p95", mon.OpenAll.P95PS, moff.OpenAll.P95PS},
			{"p99", mon.OpenAll.P99PS, moff.OpenAll.P99PS},
			{"p999", mon.OpenAll.P999PS, moff.OpenAll.P999PS},
			{"max", mon.OpenAll.MaxPS, moff.OpenAll.MaxPS},
		} {
			if q.on > q.off {
				t.Errorf("inline=%v: open %s rose from %d to %d ps with pre-flush", inline, q.name, q.off, q.on)
			}
		}
		pon, poff := servingPauseP95(t, ron), servingPauseP95(t, roff)
		t.Logf("inline=%v: ckpt-pause p95 %d ps with pre-flush, %d without; open p99 %d / %d", inline, pon, poff, mon.OpenAll.P99PS, moff.OpenAll.P99PS)
		if 3*pon > poff {
			t.Errorf("inline=%v: ckpt-pause p95 %d ps with pre-flush, %d without: not 3x lower", inline, pon, poff)
		}
	}
}

// TestGapPreFlushOnlyWhereItBelongs: a closed loop has no gaps, the
// incremental pipeline owns its own, buffered mode and InCLL have no flush to
// move and no copy-on-write to defer — none of them records a pre-flush span
// or retires a deferred byte. The first two never ask whether to defer; the
// other two ask at every cut, like any open loop under stop-the-world cuts,
// and their backend says no. Nor does a closed loop pre-copy: it has no
// arrivals to protect.
func TestGapPreFlushOnlyWhereItBelongs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		tweak   func(*Config)
		preCopy int
		asks    bool
	}{
		{"closed loop", func(c *Config) { c.Measure = nil }, 0, false},
		{"pause:2us", func(c *Config) { c.Policy = NewPausePolicy(2 * time.Microsecond) }, 1, false},
		{"buffered", func(c *Config) { c.Mode = core.ModeBuffered }, 0, true},
		{"incll", func(c *Config) { c.Backend = BackendInCLL }, 0, true},
	} {
		cfg := openMigCfg()
		cfg.Ops = 60_000
		tc.tweak(&cfg)
		res := mustRun(t, cfg)
		if !res.OK() {
			t.Fatalf("%s: violations: %v", tc.name, res.Violations)
		}
		for i := range res.Shards {
			if n := countSpans(t, res, i, "pre-flush"); n != 0 {
				t.Errorf("%s: shard %d recorded %d pre-flush spans", tc.name, i, n)
			}
			if n := countSpans(t, res, i, "pre-copy"); n != tc.preCopy {
				t.Errorf("%s: shard %d recorded %d pre-copy spans, want %d", tc.name, i, n, tc.preCopy)
			}
			tr := track(t, res, i)
			if n := trackSamples(tr, "ckpt/deferred"); (n != 0) != tc.asks {
				t.Errorf("%s: shard %d asked %d times whether to defer", tc.name, i, n)
			}
			for _, h := range tr.Histograms {
				if h.Name == "ckpt/deferred" && h.Sum() != 0 { // one sample per cut: 1 if deferred
					t.Errorf("%s: shard %d deferred %d cuts", tc.name, i, h.Sum())
				}
			}
			// (The incremental pipeline's own replay aside, and its populate
			// pre-copy.)
			if b, q := trackCounter(tr, "ckpt/deferred_cow_bytes"), countSpans(t, res, i, "ckpt-replay"); tc.preCopy == 0 && (b != 0 || q != 0) {
				t.Errorf("%s: shard %d scheduled %d deferred bytes and ran %d replay quanta", tc.name, i, b, q)
			}
		}
	}
}
