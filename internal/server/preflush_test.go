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

// TestGapPreFlush is the tentpole's contract under an arrival schedule with
// stop-the-world cuts. Flushing in the gaps between requests takes most of
// the flush out of the cut's pause and changes nothing else: the same keys
// end up on the same shards, every request takes exactly as long from its
// dispatch as it did (the service track, bucket for bucket), and — because a
// gap quantum is sized to fit before the arrival it precedes — no request is
// dispatched later than its arrival on account of one, so the open-loop
// median does not move and no open-loop quantile rises.
func TestGapPreFlush(t *testing.T) {
	run := func(off bool) (*Service, *Result) {
		svc, err := New(openMigCfg())
		if err != nil {
			t.Fatal(err)
		}
		svc.noPreFlush = off
		res, err := svc.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK() {
			t.Fatalf("noPreFlush=%v: violations: %v", off, res.Violations)
		}
		return svc, res
	}
	on, ron := run(false)
	off, roff := run(true)
	for i := range on.shards {
		// Run verified each KV against its shadow: comparing shadows compares
		// KV contents.
		if !reflect.DeepEqual(on.shards[i].shadow.live, off.shards[i].shadow.live) {
			t.Errorf("shard %d ends with different keys with and without pre-flush", i)
		}
		if !slices.Equal(on.shards[i].lat.Counts(), off.shards[i].lat.Counts()) {
			t.Errorf("shard %d: service-time histogram differs with and without pre-flush", i)
		}
		if n := countSpans(t, ron, i, "pre-flush"); n == 0 {
			t.Errorf("shard %d: no pre-flush span in an open-loop stop-the-world run", i)
		}
		if n := countSpans(t, roff, i, "pre-flush"); n != 0 {
			t.Errorf("shard %d: %d pre-flush spans with the mechanism off", i, n)
		}
		// The populate pre-copy is not the hook's to switch off.
		for _, r := range []*Result{ron, roff} {
			if n := countSpans(t, r, i, "pre-copy"); n != 1 {
				t.Errorf("shard %d: %d pre-copy spans, want one ahead of the schedule's anchor", i, n)
			}
		}
	}
	mon, moff := ron.Measure, roff.Measure
	if !reflect.DeepEqual(mon.ServiceAll, moff.ServiceAll) || !reflect.DeepEqual(mon.Service, moff.Service) {
		t.Errorf("service track moved: %+v with pre-flush, %+v without", mon.ServiceAll, moff.ServiceAll)
	}
	if mon.OpenAll.P50PS != moff.OpenAll.P50PS {
		t.Errorf("open p50 %d ps with pre-flush, %d without: a request queued behind a gap quantum", mon.OpenAll.P50PS, moff.OpenAll.P50PS)
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
			t.Errorf("open %s rose from %d to %d ps with pre-flush", q.name, q.off, q.on)
		}
	}
	pon, poff := servingPauseP95(t, ron), servingPauseP95(t, roff)
	t.Logf("ckpt-pause p95 %d ps with pre-flush, %d without; open p99 %d / %d", pon, poff, mon.OpenAll.P99PS, moff.OpenAll.P99PS)
	if 3*pon > poff {
		t.Errorf("ckpt-pause p95 %d ps with pre-flush, %d without: not 3x lower", pon, poff)
	}
}

// TestGapPreFlushOnlyWhereItBelongs: a closed loop has no gaps, the
// incremental pipeline owns its own, buffered mode and InCLL have no flush to
// move — none of them records a pre-flush span. Nor does a closed loop
// pre-copy: it has no arrivals to protect.
func TestGapPreFlushOnlyWhereItBelongs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		tweak   func(*Config)
		preCopy int
	}{
		{"closed loop", func(c *Config) { c.Measure = nil }, 0},
		{"pause:2us", func(c *Config) { c.Policy = NewPausePolicy(2 * time.Microsecond) }, 1},
		{"buffered", func(c *Config) { c.Mode = core.ModeBuffered }, 0},
		{"incll", func(c *Config) { c.Backend = BackendInCLL }, 0},
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
		}
	}
}
