package server

import (
	"reflect"
	"testing"
	"time"

	"libcrpm/internal/core"
	"libcrpm/internal/workload"
)

// smallCfg is a seconds-fast service configuration shared by the tests.
func smallCfg() Config {
	return Config{
		Shards:   4,
		Clients:  8,
		Mix:      workload.YCSBA,
		Ops:      6000,
		Keys:     1500,
		HeapSize: 1 << 20,
		Buckets:  1 << 10,
		BatchOps: 512,
		Policy:   OpsPolicy{Every: 1024},
		Seed:     42,
	}
}

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRouterCoversAllShards(t *testing.T) {
	r := NewRouter(8)
	hits := make([]int, 8)
	for k := uint64(0); k < 10_000; k++ {
		s := r.Shard(k)
		if s < 0 || s >= 8 {
			t.Fatalf("key %d routed to shard %d", k, s)
		}
		hits[s]++
	}
	for s, n := range hits {
		if n < 10_000/8/2 {
			t.Fatalf("shard %d got only %d of 10000 keys; router is unbalanced", s, n)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		spec string
		want Policy
	}{
		{"ops:4096", OpsPolicy{Every: 4096}},
		{"interval:8ms", IntervalPolicy{Every: 8 * time.Millisecond}},
		{"dirty:1048576", DirtyBytesPolicy{Bytes: 1 << 20}},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.spec)
		if err != nil || got != c.want {
			t.Fatalf("ParsePolicy(%q) = %v, %v; want %v", c.spec, got, err, c.want)
		}
	}
	for _, bad := range []string{"", "ops", "ops:0", "ops:x", "interval:-1s", "epoch:5"} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Fatalf("ParsePolicy(%q) should fail", bad)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Shards: 1, Clients: 1, Keys: 10, Ops: 0}); err != ErrNoOps {
		t.Fatalf("ops=0: err = %v, want ErrNoOps", err)
	}
	if _, err := New(Config{Shards: 0, Clients: 1, Keys: 10, Ops: 1}); err == nil {
		t.Fatal("zero shards should fail")
	}
}

// TestNewLeavesCallerMigrationsAlone: Config is passed by value but its
// Migrations slice shares a backing array with the caller's, and sweeps
// hand one base config to many concurrent runs — defaulting AfterCuts must
// happen on a private copy.
func TestNewLeavesCallerMigrationsAlone(t *testing.T) {
	cfg := migCfg()
	cfg.Migrations = []MigrateSpec{{Kind: MigrateSplit, Src: 0}}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Migrations[0].AfterCuts; got != 0 {
		t.Fatalf("New wrote AfterCuts=%d into the caller's Migrations slice", got)
	}
	if got := svc.cfg.Migrations[0].AfterCuts; got != 1 {
		t.Fatalf("the service's own copy has AfterCuts=%d, want the default 1", got)
	}
}

// TestCleanRunAllMixes: every YCSB mix serves to completion with the KV
// exactly matching the acked-op shadow on every shard.
func TestCleanRunAllMixes(t *testing.T) {
	for _, mix := range append(workload.YCSBMixes(), workload.YCSBCrud) {
		cfg := smallCfg()
		cfg.Mix = mix
		res := mustRun(t, cfg)
		if !res.OK() {
			t.Fatalf("mix %s: %d violations, first: %v", mix.Name, len(res.Violations), res.Violations[0])
		}
		if res.TotalOps != uint64(cfg.Ops) {
			t.Fatalf("mix %s: acked %d of %d ops", mix.Name, res.TotalOps, cfg.Ops)
		}
		if res.Cuts < 2 {
			t.Fatalf("mix %s: only %d cuts", mix.Name, res.Cuts)
		}
		for _, st := range res.Shards {
			if st.Epoch != res.Shards[0].Epoch {
				t.Fatalf("mix %s: shard %d at epoch %d, shard 0 at %d", mix.Name, st.Shard, st.Epoch, res.Shards[0].Epoch)
			}
		}
	}
}

// TestRBMapBufferedService: the ordered structure under the buffered
// container mode, serving the scan-heavy mix.
func TestRBMapBufferedService(t *testing.T) {
	cfg := smallCfg()
	cfg.DS = DSRBMap
	cfg.Mode = core.ModeBuffered
	cfg.Mix = workload.YCSBE
	cfg.Ops = 3000
	res := mustRun(t, cfg)
	if !res.OK() {
		t.Fatalf("%d violations, first: %v", len(res.Violations), res.Violations[0])
	}
}

// TestPolicies: each pluggable policy drives cuts and stays consistent.
func TestPolicies(t *testing.T) {
	for _, pol := range []Policy{
		OpsPolicy{Every: 1024},
		IntervalPolicy{Every: 200 * time.Microsecond},
		DirtyBytesPolicy{Bytes: 64 << 10},
	} {
		cfg := smallCfg()
		cfg.Policy = pol
		res := mustRun(t, cfg)
		if !res.OK() {
			t.Fatalf("policy %s: %v", pol.Name(), res.Violations[0])
		}
		if res.Cuts < 2 {
			t.Fatalf("policy %s: only %d cuts", pol.Name(), res.Cuts)
		}
	}
}

// TestDirtyPolicyReadOnlyRun: a byte-threshold policy cuts on what the epoch
// has dirtied. A read-only run dirties nothing once populated, so exactly the
// populate and close-out cuts are due — not one per policy round on the
// differential bits the populate epoch left in the dirty-block bitmap.
func TestDirtyPolicyReadOnlyRun(t *testing.T) {
	cfg := smallCfg()
	cfg.Mix, cfg.Policy = workload.YCSBC, DirtyBytesPolicy{Bytes: 64 << 10}
	res := mustRun(t, cfg)
	if !res.OK() {
		t.Fatalf("%d violations, first: %v", len(res.Violations), res.Violations[0])
	}
	if res.Cuts != 2 {
		t.Fatalf("%d cuts on a read-only run of %d policy rounds, want the populate and close-out cuts only", res.Cuts, cfg.Ops/cfg.BatchOps)
	}
}

// TestDirtyPolicyCountsInlineLoggedLines: the incll backend's dirty estimate is
// its touched-line footprint, inline-logged lines included — and almost every
// store of KV traffic is a small single-line store, logged inline. On
// `crpmserve -shards 2 -clients 4 -mix a -ops 100000 -backend incll -policy
// dirty:65536` every policy round's writes pass 64 KiB, so the run cuts at
// every round, 50 times, as `-backend default` does; counting side-logged
// lines only it took 7 cuts.
func TestDirtyPolicyCountsInlineLoggedLines(t *testing.T) {
	res := mustRun(t, Config{
		Shards: 2, Clients: 4, Mix: workload.YCSBA, Ops: 100000, Keys: 100000, Backend: BackendInCLL,
		HeapSize: 8 << 20, Buckets: 1 << 15, Policy: DirtyBytesPolicy{Bytes: 64 << 10},
	})
	if !res.OK() {
		t.Fatalf("%d violations, first: %v", len(res.Violations), res.Violations[0])
	}
	if res.Cuts != 50 {
		t.Fatalf("%d cuts, want 50: one per policy round", res.Cuts)
	}
}

// TestRunDeterminism is the byte-identity contract: the full Result —
// ops, cuts, simulated times, latency and pause quantiles — is identical
// at verification parallelism 1 and 8, and across repeated runs.
func TestRunDeterminism(t *testing.T) {
	base := smallCfg()
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

// TestCrashRecoveryConverges: crashes injected across the serving phase
// of different shards must all recover every shard to one global epoch
// with the landing epoch's exact acked state, and the recovered service
// must still serve (liveness).
func TestCrashRecoveryConverges(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeDefault, core.ModeBuffered} {
		cfg := smallCfg()
		cfg.Ops = 3000
		cfg.Mode = mode
		cfg.Liveness = true
		ref, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Run(); err != nil {
			t.Fatal(err)
		}
		spans := ref.PrimitiveSpans()
		for _, shard := range []int{0, 2} {
			base, end := spans[shard][0], spans[shard][1]
			if end <= base {
				t.Fatalf("mode %v shard %d: empty serving span [%d,%d)", mode, shard, base, end)
			}
			for _, at := range []int64{base + 1, base + (end-base)/3, base + (end-base)/2, end - 1} {
				ccfg := cfg
				ccfg.Crash = &CrashSpec{Shard: shard, At: at}
				res := mustRun(t, ccfg)
				if res.CrashedShard != shard {
					t.Fatalf("mode %v: crash at %d reported on shard %d, want %d", mode, at, res.CrashedShard, shard)
				}
				if !res.Recovered {
					t.Fatalf("mode %v shard %d at %d: not recovered: %v", mode, shard, at, res.Violations)
				}
				if !res.OK() {
					t.Fatalf("mode %v shard %d at %d: %d violations, first: %v",
						mode, shard, at, len(res.Violations), res.Violations[0])
				}
				if res.RecoveredEpoch < 1 {
					t.Fatalf("mode %v shard %d at %d: landed on epoch %d before the populate cut",
						mode, shard, at, res.RecoveredEpoch)
				}
			}
		}
	}
}

// TestCrashDeterminism: the same crash point yields the same Result
// (including recovery outcome) on every run.
func TestCrashDeterminism(t *testing.T) {
	cfg := smallCfg()
	cfg.Ops = 2000
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	spans := ref.PrimitiveSpans()
	at := spans[1][0] + (spans[1][1]-spans[1][0])/2
	cfg.Crash = &CrashSpec{Shard: 1, At: at}
	a := mustRun(t, cfg)
	b := mustRun(t, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("crash runs differ:\n%+v\nvs\n%+v", a, b)
	}
}

// TestTraceTracks: tracing produces one track per shard without
// disturbing the run.
func TestTraceTracks(t *testing.T) {
	cfg := smallCfg()
	cfg.Ops = 1500
	cfg.Trace = true
	res := mustRun(t, cfg)
	if !res.OK() {
		t.Fatal(res.Violations[0])
	}
	if res.Trace == nil || len(res.Trace.Tracks) != cfg.Shards {
		t.Fatalf("trace has %v tracks, want %d", res.Trace, cfg.Shards)
	}
}
