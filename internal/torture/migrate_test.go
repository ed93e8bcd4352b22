package torture

import (
	"reflect"
	"strings"
	"testing"

	"libcrpm/internal/measure"
	"libcrpm/internal/server"
	"libcrpm/internal/workload"
)

// migBase is the sweeps' service: small shards, and a table sized so that a
// merge destination's never grows mid-install.
func migBase() server.Config {
	return server.Config{
		Shards:   2,
		Clients:  2,
		Ops:      6000,
		Keys:     2000,
		HeapSize: 2 << 20,
		Buckets:  1 << 12,
		BatchOps: 256,
		Policy:   server.OpsPolicy{Every: 1024},
		Seed:     7,
		Migrations: []server.MigrateSpec{
			{Kind: server.MigrateSplit, Src: 0, AfterCuts: 2},
		},
	}
}

// TestMigrateSweepSplit crash-injects across every phase window of a live
// split — mid-transfer, mid-catch-up, and around the ring flip, on both
// the source and the spawned destination — under all standard crash-image
// policies. Zero violations tolerated.
func TestMigrateSweepSplit(t *testing.T) {
	if testing.Short() {
		t.Skip("migration crash sweep is long")
	}
	res, err := MigrateSweep(MigrateConfig{
		Server:   migBase(),
		Stride:   97, // prime stride: sparse but phase-covering points
		Policies: StandardPolicies(migBase().Seed)[:2],
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replays == 0 {
		t.Fatal("sweep ran no replays")
	}
	for _, phase := range []string{"transfer", "catchup", "flip", "cleanup"} {
		found := false
		for key := range res.Points {
			if strings.Contains(key, "/"+phase+"/") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no crash points in %s phase (points: %v)", phase, res.Points)
		}
	}
	if len(res.Violations) != 0 {
		max := len(res.Violations)
		if max > 5 {
			max = 5
		}
		t.Fatalf("%d violations, first %d: %+v", len(res.Violations), max, res.Violations[:max])
	}
}

// TestMigrateSweepOpenLoop is the sweep an open-loop run needs: only under
// an arrival schedule does migration work leave the policy round for the
// idle gaps, so only here do crash points land between an install, replay or
// delete quantum and the requests it interleaves with — and inside the
// quanta's write-through scopes. A split and the merge that folds it back
// are crashed at strided points of every phase window under all standard
// crash images, and then the split alone at EVERY primitive of its
// destination's catch-up, flip and cleanup windows under every standard
// crash image (traffic-less until the flip, shard 2 runs nothing but the
// catch-up list's quanta there, then the flip cut's commit; after it, it
// serves the span while it pulls what the flip handed over — on demand and
// in the gaps between arrivals — and then takes the cut the flip binds to:
// each store, each line of a scope's flush, its fence). Zero violations,
// and every report is the same at any replay parallelism.
func TestMigrateSweepOpenLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("migration crash sweep is long")
	}
	cfg := migBase()
	cfg.Ops = 8000
	cfg.Migrations = []server.MigrateSpec{
		{Kind: server.MigrateSplit, Src: 0, AfterCuts: 2},
		{Kind: server.MigrateMerge, Src: 2, Dst: 1, AfterCuts: 5},
	}
	cfg.Measure = &measure.Config{TargetOps: 1e6, WarmupOps: 500}

	traced := cfg
	traced.Trace = true
	ref, err := server.New(traced)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ref.Run()
	if err != nil || !res.OK() {
		t.Fatalf("reference run: %v, %v", err, res)
	}
	quanta := map[string]int{} // one span per migration quantum
	for _, tr := range res.Trace.Tracks {
		for _, sp := range tr.Spans {
			quanta[sp.Name]++
		}
	}
	for _, span := range []string{"mig-install", "mig-catchup", "mig-residual", "mig-delete"} {
		if quanta[span] < 2 {
			t.Fatalf("%d %s quanta: the work did not run in the gaps", quanta[span], span)
		}
	}

	sweep := func(mc MigrateConfig) ServiceResult {
		t.Helper()
		if mc.Server.Shards == 0 {
			mc.Server = cfg
		}
		res, err := MigrateSweep(mc)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("%d violations, first: %v", len(res.Violations), res.Violations[0])
		}
		return res
	}
	strided := sweep(MigrateConfig{Stride: 331, Parallel: 8})
	for _, phase := range []string{"transfer", "catchup", "flip", "cleanup"} {
		for _, pol := range StandardPolicies(cfg.Seed) {
			found := false
			for key, n := range strided.Points {
				if strings.HasSuffix(key, "/"+phase+"/"+pol.Name) && n > 0 {
					found = true
				}
			}
			if !found {
				t.Errorf("no crash points in %s phase under %s (points: %v)", phase, pol.Name, strided.Points)
			}
		}
	}
	for _, pol := range StandardPolicies(cfg.Seed) {
		// Shard 1 is only ever a destination: its cleanup window is the
		// merge's pull, under traffic, and the cut the flip binds to.
		if strided.Points["shard1/cleanup/"+pol.Name] == 0 {
			t.Errorf("no crash points in the merge destination's cleanup window under %s (points: %v)", pol.Name, strided.Points)
		}
	}
	if serial := sweep(MigrateConfig{Stride: 331, Parallel: 1}); !reflect.DeepEqual(serial, strided) {
		t.Fatalf("report differs between Parallel 1 and 8:\n%+v\n%+v", serial, strided)
	}
	// Read-mostly, so the catch-up log — and with it the window — is short.
	// The split flips at a policy cut mid-run, not at one the end-of-run
	// drain forces, so shard 2's cleanup window holds the pull under
	// arrivals: a mig-residual quantum between the flip cut's landing and
	// the pause of the cut the flip binds to, which is not the run's last.
	splitOnly := cfg
	splitOnly.Migrations, splitOnly.Mix = cfg.Migrations[:1], workload.YCSBB
	traced = splitOnly
	traced.Trace = true
	if ref, err = server.New(traced); err != nil {
		t.Fatal(err)
	}
	if res, err = ref.Run(); err != nil || !res.OK() {
		t.Fatalf("split-only reference run: %v, %v", err, res)
	}
	flip := res.Migrations[0]
	if flip.FlipEpoch >= res.Shards[0].Epoch {
		t.Fatalf("the split's flip binds to epoch %d, the run's last cut: it rode a cut of the end-of-run drain", flip.FlipEpoch)
	}
	bind, pulled := int64(-1), false
	for _, sp := range res.Trace.Tracks[2].Spans { // in the order they end
		if sp.Name == "ckpt-pause" && sp.Start >= flip.FlipPS {
			bind = sp.Start
			break
		}
	}
	for _, sp := range res.Trace.Tracks[2].Spans {
		if sp.Name == "mig-residual" && sp.Start >= flip.FlipPS && sp.End <= bind {
			pulled = true
		}
	}
	if !pulled {
		t.Fatalf("no mig-residual quantum on shard 2 between the flip cut (%d ps) and the cut it binds to (%d ps)", flip.FlipPS, bind)
	}
	everyCfg := MigrateConfig{Server: splitOnly, Phases: []string{"catchup", "flip", "cleanup"}, CrashShards: []int{2}, Stride: 1, Parallel: 8}
	every := sweep(everyCfg)
	for _, phase := range everyCfg.Phases {
		for _, pol := range StandardPolicies(cfg.Seed) {
			if every.Points["shard2/"+phase+"/"+pol.Name] == 0 {
				t.Errorf("no every-primitive crash points in the destination's %s window under %s (points: %v)", phase, pol.Name, every.Points)
			}
		}
	}
	everyCfg.Parallel = 1
	if serial := sweep(everyCfg); !reflect.DeepEqual(serial, every) {
		t.Fatalf("every-primitive report differs between Parallel 1 and 8:\n%+v\n%+v", serial, every)
	}
	t.Logf("%d strided replays, %d every-primitive catch-up, flip and cleanup replays (%v)", strided.Replays, every.Replays, every.Points)
}

// TestMigrateSweepRejects pins the input validation.
func TestMigrateSweepRejects(t *testing.T) {
	cfg := migBase()
	cfg.Migrations = nil
	if _, err := MigrateSweep(MigrateConfig{Server: cfg}); err == nil {
		t.Fatal("non-migratory config accepted")
	}
	cfg = migBase()
	cfg.Crash = &server.CrashSpec{Shard: 0, At: 1}
	if _, err := MigrateSweep(MigrateConfig{Server: cfg}); err == nil {
		t.Fatal("pre-set Crash accepted")
	}
}
