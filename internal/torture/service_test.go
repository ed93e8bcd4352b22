package torture

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"libcrpm/internal/measure"
	"libcrpm/internal/nvm"
	"libcrpm/internal/server"
	"libcrpm/internal/workload"
)

func serviceBase() server.Config {
	return server.Config{
		Shards:   3,
		Clients:  4,
		Mix:      workload.YCSBCrud, // exercises the full KV surface
		Ops:      500,
		Keys:     150,
		HeapSize: 1 << 20,
		Buckets:  1 << 9,
		BatchOps: 128,
		Policy:   server.OpsPolicy{Every: 160},
		Seed:     7,
	}
}

// TestServiceSweep is the acceptance sweep for the sharded service:
// crashes across the serving phase of multiple shards, under seeded and
// adversarial crash schedules, must always recover every shard to one
// global epoch with every pre-cut acked op intact — and the recovered
// service must keep serving.
func TestServiceSweep(t *testing.T) {
	cfg := ServiceConfig{
		Server:      serviceBase(),
		CrashShards: []int{0, 2},
		Policies:    append(StandardPolicies(7), AdversarialPolicy()),
	}
	res, err := ServiceSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replays == 0 {
		t.Fatal("sweep ran no replays")
	}
	for combo, pts := range res.Points {
		if pts < 8 {
			t.Fatalf("combo %s tested only %d points", combo, pts)
		}
	}
	if !res.OK() {
		t.Fatalf("%d violations (of %d replays), first: %v", len(res.Violations), res.Replays, res.Violations[0])
	}
}

// TestServiceSweepIncremental points the same sweep at the incremental cut
// pipeline: under a pause policy most crash points land inside an in-flight
// cut — mid-flush, between commit and replay, or mid-lift — and every one
// must still recover to a consistent global epoch with all pre-cut acked
// ops intact.
func TestServiceSweepIncremental(t *testing.T) {
	srv := serviceBase()
	srv.Policy = server.NewPausePolicy(2 * time.Microsecond)
	cfg := ServiceConfig{
		Server:      srv,
		CrashShards: []int{0, 2},
		Policies:    append(StandardPolicies(7), AdversarialPolicy()),
	}
	res, err := ServiceSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replays == 0 {
		t.Fatal("sweep ran no replays")
	}
	for combo, pts := range res.Points {
		if pts < 8 {
			t.Fatalf("combo %s tested only %d points", combo, pts)
		}
	}
	if !res.OK() {
		t.Fatalf("%d violations (of %d replays), first: %v", len(res.Violations), res.Replays, res.Violations[0])
	}
}

// TestServiceSweepKillPrimary is the acceptance sweep for failover: with
// every shard replicated, crashes strided across two shards' serving
// spans — under the pause policy, so many land inside in-flight
// incremental cuts — must always promote a secondary, converge every
// shard on one epoch, and lose or double-apply nothing acked across a
// cut, for each SLA spec in the matrix.
func TestServiceSweepKillPrimary(t *testing.T) {
	srv := serviceBase()
	srv.Replicas = 2
	srv.Policy = server.NewPausePolicy(2 * time.Microsecond)
	cfg := ServiceConfig{
		Server:      srv,
		CrashShards: []int{0, 2},
		Policies:    StandardPolicies(7),
		KillPrimary: true,
		SLAs:        []string{"mix", "strong", "bounded:1"},
	}
	res, err := ServiceSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replays == 0 {
		t.Fatal("sweep ran no replays")
	}
	for _, spec := range cfg.SLAs {
		for _, sh := range cfg.CrashShards {
			key := fmt.Sprintf("shard%d/%s/%s", sh, StandardPolicies(7)[0].Name, spec)
			if res.Points[key] < 8 {
				t.Fatalf("combo %s tested only %d points", key, res.Points[key])
			}
		}
	}
	if !res.OK() {
		t.Fatalf("%d violations (of %d replays), first: %v", len(res.Violations), res.Replays, res.Violations[0])
	}
}

// TestServiceSweepKillPrimaryValidation: the failover mode's config
// contract — no replicas means no kill-primary, and the SLA dimension
// exists only there.
func TestServiceSweepKillPrimaryValidation(t *testing.T) {
	cfg := ServiceConfig{Server: serviceBase(), KillPrimary: true}
	if _, err := ServiceSweep(cfg); err == nil {
		t.Fatal("kill-primary without replicas should fail")
	}
	cfg = ServiceConfig{Server: serviceBase(), SLAs: []string{"mix"}}
	if _, err := ServiceSweep(cfg); err == nil {
		t.Fatal("SLA dimension without kill-primary should fail")
	}
	srv := serviceBase()
	srv.Replicas = 1
	cfg = ServiceConfig{Server: srv, KillPrimary: true, SLAs: []string{"nope"}}
	if _, err := ServiceSweep(cfg); err == nil {
		t.Fatal("unparsable sweep SLA should fail")
	}
}

// TestServiceSweepDeterministicReport: the violation report (here: the
// pass/fail counters) is identical at any replay parallelism.
func TestServiceSweepDeterministicReport(t *testing.T) {
	base := ServiceConfig{
		Server:      serviceBase(),
		CrashShards: []int{1},
		Stride:      977, // a handful of points; this test is about report identity
	}
	serial, par := base, base
	serial.Parallel = 1
	par.Parallel = 8
	a, err := ServiceSweep(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ServiceSweep(par)
	if err != nil {
		t.Fatal(err)
	}
	if a.Replays != b.Replays || len(a.Violations) != len(b.Violations) {
		t.Fatalf("serial (%d replays, %d violations) != parallel (%d, %d)",
			a.Replays, len(a.Violations), b.Replays, len(b.Violations))
	}
	for i := range a.Violations {
		if a.Violations[i] != b.Violations[i] {
			t.Fatalf("violation %d differs: %v vs %v", i, a.Violations[i], b.Violations[i])
		}
	}
	for k, v := range a.Points {
		if b.Points[k] != v {
			t.Fatalf("points %s: %d vs %d", k, v, b.Points[k])
		}
	}
}

// TestServiceSweepKillPrimaryDeterministicReport: the kill-primary
// report, promotions included, is byte-identical at replay parallelism
// 1 and 8 — the CI failover byte-identity gate.
func TestServiceSweepKillPrimaryDeterministicReport(t *testing.T) {
	srv := serviceBase()
	srv.Replicas = 2
	base := ServiceConfig{
		Server:      srv,
		CrashShards: []int{1},
		Stride:      977,
		KillPrimary: true,
		SLAs:        []string{"mix"},
	}
	serial, par := base, base
	serial.Parallel = 1
	par.Parallel = 8
	a, err := ServiceSweep(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ServiceSweep(par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("serial and parallel kill-primary reports differ:\n%+v\nvs\n%+v", a, b)
	}
	if a.Replays == 0 {
		t.Fatal("sweep ran no replays")
	}
	if !a.OK() {
		t.Fatalf("%d violations, first: %v", len(a.Violations), a.Violations[0])
	}
}

// idleGapBase is serviceBase under the open-loop rig and a pause policy,
// offered well below the knee: the shards sit idle between arrivals, so
// most of every incremental cut's quanta run inside those gaps instead of
// at batch boundaries.
func idleGapBase() server.Config {
	srv := serviceBase()
	srv.Ops = 1500
	srv.Keys = 600
	srv.Policy = server.NewPausePolicy(time.Microsecond)
	srv.Measure = &measure.Config{TargetOps: 1e6}
	return srv
}

// TestServiceSweepIdleGapQuanta strides crash points through checkpoint
// quanta that run in open-loop idle gaps — mid-flush between two requests
// of one batch, mid-replay, between a gap quantum's last flush and its
// fence — under every crash-image policy. Each must recover all shards to
// one global epoch with every op acked before that epoch's cut intact: a
// request acknowledged at a gap quantum's fence is exactly as durable as
// one acknowledged at a boundary quantum's.
func TestServiceSweepIdleGapQuanta(t *testing.T) {
	srv := idleGapBase()
	// The reference run must actually put its quanta in the gaps: a batch
	// boundary runs at most one, so any excess over the batch count did.
	traced := srv
	traced.Trace = true
	ref, err := server.New(traced)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ref.Run()
	if err != nil || !res.OK() {
		t.Fatalf("reference run: %v, %v", err, res)
	}
	batches := (srv.Ops + srv.BatchOps - 1) / srv.BatchOps
	for _, tr := range res.Trace.Tracks {
		quanta := 0
		for _, sp := range tr.Spans {
			if sp.Name == "ckpt-step" || sp.Name == "ckpt-replay" {
				quanta++
			}
		}
		t.Logf("%s: %d checkpoint quanta over %d batches", tr.Label, quanta, batches)
		if quanta < 2*batches {
			t.Fatalf("%s: %d checkpoint quanta over %d batches; the sweep would not cross idle-gap quanta", tr.Label, quanta, batches)
		}
	}

	crash := []int{0, 2}
	if testing.Short() {
		crash = crash[:1] // the race-detector CI job runs -short
	}
	sweep, err := ServiceSweep(ServiceConfig{
		Server:      srv,
		CrashShards: crash,
		Policies:    append(StandardPolicies(7), AdversarialPolicy()),
	})
	if err != nil {
		t.Fatal(err)
	}
	for combo, pts := range sweep.Points {
		if pts < 32 {
			t.Fatalf("combo %s tested only %d points", combo, pts)
		}
	}
	if !sweep.OK() {
		t.Fatalf("%d violations (of %d replays), first: %v", len(sweep.Violations), sweep.Replays, sweep.Violations[0])
	}

	sameReportAtAnyParallelism(t, ServiceConfig{Server: srv, CrashShards: []int{1}, Stride: 397})
}

// sameReportAtAnyParallelism runs a (coarse) sweep at replay parallelism 1
// and 8 and demands the same report, bytes and all.
func sameReportAtAnyParallelism(t *testing.T, coarse ServiceConfig) {
	t.Helper()
	serial, par := coarse, coarse
	serial.Parallel, par.Parallel = 1, 8
	a, err := ServiceSweep(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ServiceSweep(par)
	if err != nil {
		t.Fatal(err)
	}
	if a.Replays == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("serial sweep %+v != parallel sweep %+v", a, b)
	}
}

// crashedClock is shard sh's simulated clock at device primitive k of a run
// of srv: a crashed run stops its clock at the failing primitive, and the run
// is the crash-free one's up to there, so against a reference trace the clock
// says which span the primitive falls in.
func crashedClock(t *testing.T, srv server.Config, sh int, k int64) int64 {
	t.Helper()
	srv.Crash = &server.CrashSpec{Shard: sh, At: k}
	svc, err := server.New(srv)
	if err != nil {
		t.Fatal(err)
	}
	crashed, err := svc.Run()
	if err != nil {
		t.Fatal(err)
	}
	return crashed.Shards[sh].SimPS
}

// gapPreFlushBase is an open-loop run under stop-the-world cuts, offered far
// below the knee and with epochs long enough that each shard's queue of
// dirtied blocks outgrows the pre-flush lag: most of every cut's flush is
// written back in the gaps between requests.
func gapPreFlushBase() server.Config {
	srv := serviceBase()
	srv.Shards = 2
	srv.Ops = 20_000
	srv.Keys = 4000
	srv.BatchOps = 512
	srv.Policy = server.OpsPolicy{Every: 8192}
	srv.Measure = &measure.Config{TargetOps: 1e6}
	return srv
}

// TestServiceSweepGapPreFlush strides crash points through an open-loop,
// stop-the-world run whose idle gaps write dirty blocks back ahead of the
// cut — between a gap quantum's flushes, between its last flush and its
// fence, in the requests that re-dirty a written-back block, and in the cuts
// that skip the marked ones — under every crash-image policy. Each must
// recover both shards to one global epoch with every op acked before that
// epoch's cut intact: a block the cut skipped is exactly as durable as one it
// flushed.
func TestServiceSweepGapPreFlush(t *testing.T) {
	srv := gapPreFlushBase()
	traced := srv
	traced.Trace = true
	ref, err := server.New(traced)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ref.Run()
	if err != nil || !res.OK() {
		t.Fatalf("reference run: %v, %v", err, res)
	}
	spans := ref.PrimitiveSpans()
	policies := append(StandardPolicies(7), AdversarialPolicy())
	for sh := 0; sh < srv.Shards; sh++ {
		if testing.Short() && sh > 0 {
			break // the race-detector CI job runs -short
		}
		stride := int((spans[sh][1] - spans[sh][0]) / 64)
		// The sweep must cross gap quanta, not just run beside them: a crashed
		// run stops its clock at the failing primitive, and the run is the
		// reference's up to there, so the clock says which span was open.
		inside := 0
		for k := spans[sh][0] + 1; k < spans[sh][1]; k += int64(stride) {
			at := crashedClock(t, srv, sh, k)
			for _, sp := range res.Trace.Tracks[sh].Spans {
				if sp.Name == "pre-flush" && sp.Start <= at && at < sp.End {
					inside++
					break
				}
			}
		}
		t.Logf("shard %d: %d of ~64 strided crash points fall inside pre-flush spans", sh, inside)
		if inside < 4 {
			t.Fatalf("shard %d: only %d strided crash points fall inside pre-flush spans; the sweep would not cross gap quanta", sh, inside)
		}

		sweep, err := ServiceSweep(ServiceConfig{Server: srv, CrashShards: []int{sh}, Stride: stride, Policies: policies})
		if err != nil {
			t.Fatal(err)
		}
		for combo, pts := range sweep.Points {
			if pts < 60 {
				t.Fatalf("combo %s tested only %d points", combo, pts)
			}
		}
		if !sweep.OK() {
			t.Fatalf("%d violations (of %d replays), first: %v", len(sweep.Violations), sweep.Replays, sweep.Violations[0])
		}
	}

	sameReportAtAnyParallelism(t, ServiceConfig{Server: srv, CrashShards: []int{1}, Stride: 1499})
}

// TestServiceSweepDeferredCoW strides crash points through open-loop,
// stop-the-world runs whose epochs defer their copy-on-write behind the write
// barrier: in a steady run with idle time to spare, where every replay is
// over long before the next cut, and in one where a merge doubles a shard's
// load mid-run, so that replays scheduled on the strength of yesterday's gaps
// are still in flight when a cut arrives and its checkpoint has to finish
// them. The points are proven — by the crashed clock against the reference
// trace, as TestServiceSweepGapPreFlush does — to fall inside replay quanta
// between requests, inside lifts (a quantum shorter than a fence has issued
// nothing but the stores that re-apply staged blocks), and inside checkpoints
// draining a replay; where the stride misses a kind, the first such span is
// searched for and crashed on purpose. Under every crash-image policy each
// must recover all shards to one global epoch with every op acked before
// that epoch's cut intact.
func TestServiceSweepDeferredCoW(t *testing.T) {
	surge := gapPreFlushBase()
	surge.Shards, surge.Ops = 3, 14_000
	surge.Policy = server.OpsPolicy{Every: 4096}
	surge.Measure = &measure.Config{TargetOps: 3e6}
	surge.Migrations = []server.MigrateSpec{{Kind: server.MigrateMerge, Src: 2, Dst: 1, AfterCuts: 2}}
	policies := append(StandardPolicies(7), AdversarialPolicy())
	for _, tc := range []struct {
		name   string
		srv    server.Config
		crash  []int
		drains bool
	}{
		{"steady", gapPreFlushBase(), []int{0}, false},
		{"merge-surge", surge, []int{1}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			traced := tc.srv
			traced.Trace = true
			ref, err := server.New(traced)
			if err != nil {
				t.Fatal(err)
			}
			res, err := ref.Run()
			if err != nil || !res.OK() {
				t.Fatalf("reference run: %v, %v", err, res)
			}
			prims := ref.PrimitiveSpans()
			for _, sh := range tc.crash {
				// The reference's replay quanta, by kind.
				type window struct{ lo, hi int64 }
				var ckpts []window
				kinds := map[string][]window{}
				for _, sp := range res.Trace.Tracks[sh].Spans {
					if sp.Name == "checkpoint" {
						ckpts = append(ckpts, window{sp.Start, sp.End})
					}
				}
				for _, sp := range res.Trace.Tracks[sh].Spans {
					if sp.Name != "ckpt-replay" {
						continue
					}
					kind := "gap"
					for _, c := range ckpts {
						if c.lo <= sp.Start && sp.End <= c.hi {
							kind = "drain"
						}
					}
					if kind == "gap" && sp.Ticks < nvm.DefaultCostModel().SFencePS {
						kind = "lift"
					}
					kinds[kind] = append(kinds[kind], window{sp.Start, sp.End})
				}
				want := []string{"gap", "lift"}
				if tc.drains {
					want = append(want, "drain")
				}
				for _, kind := range want {
					if len(kinds[kind]) == 0 {
						t.Fatalf("shard %d: the reference run has no %s quantum", sh, kind)
					}
				}
				clockAt := func(k int64) int64 { return crashedClock(t, tc.srv, sh, k) }
				lo, hi := prims[sh][0], prims[sh][1]
				stride := int((hi - lo) / 64)
				var ks, clocks []int64
				inside := map[string]int{}
				for k := lo + 1; k < hi; k += int64(stride) {
					at := clockAt(k)
					ks, clocks = append(ks, k), append(clocks, at)
					for kind, ws := range kinds {
						for _, w := range ws {
							if w.lo <= at && at < w.hi {
								inside[kind]++
							}
						}
					}
				}
				// Quanta are a small share of a run's primitives and a stride
				// of hundreds steps over most of them, so two spans of every
				// kind — the first and the middle one — are crashed on
				// purpose: the primitive is found by bisection on the crashed
				// clock, between the strided points that bracket the span.
				var aimed []int64
				for _, kind := range want {
					for _, w := range []window{kinds[kind][0], kinds[kind][len(kinds[kind])/2]} {
						a, b := lo+1, hi-1
						for i, at := range clocks {
							if at < w.lo {
								a = ks[i] + 1
							} else {
								b = ks[i]
								break
							}
						}
						for a < b {
							if mid := (a + b) / 2; clockAt(mid) < w.lo {
								a = mid + 1
							} else {
								b = mid
							}
						}
						if at := clockAt(a); at < w.lo || at >= w.hi {
							t.Fatalf("shard %d: no primitive inside the %s quantum [%d, %d): the nearest is at %d", sh, kind, w.lo, w.hi, at)
						}
						aimed = append(aimed, a)
					}
				}
				t.Logf("shard %d: of %d strided crash points %d fall inside gap quanta, %d inside lifts, %d inside draining checkpoints; %d more aimed at each kind",
					sh, len(ks), inside["gap"], inside["lift"], inside["drain"], len(aimed)/len(want))

				sweep, err := ServiceSweep(ServiceConfig{Server: tc.srv, CrashShards: []int{sh}, Stride: stride, Policies: policies})
				if err != nil {
					t.Fatal(err)
				}
				for combo, pts := range sweep.Points {
					if pts < 60 {
						t.Fatalf("combo %s tested only %d points", combo, pts)
					}
				}
				if !sweep.OK() {
					t.Fatalf("%d violations (of %d replays), first: %v", len(sweep.Violations), sweep.Replays, sweep.Violations[0])
				}
				base := tc.srv
				base.Liveness = true
				for _, k := range aimed {
					for _, pol := range policies {
						if vs := serviceReplay(base, sh, pol, "", k, false); len(vs) != 0 {
							t.Fatalf("aimed crash: %d violations, first: %v", len(vs), vs[0])
						}
					}
				}
			}
			sameReportAtAnyParallelism(t, ServiceConfig{Server: tc.srv, CrashShards: []int{1}, Stride: 1499})
		})
	}
}
