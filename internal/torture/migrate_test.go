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
// destination's catch-up window (traffic-less, shard 2 runs nothing but
// quanta there: each store, each line of the scope's flush, its fence). Zero violations, and the report is the
// same at any replay parallelism.
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

	ref, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := ref.Run(); err != nil || !res.OK() {
		t.Fatalf("reference run: %v, %v", err, res)
	}
	quanta := map[string]int{}
	for _, sp := range ref.MigrationSpans() {
		quanta[sp.Phase] += sp.Quanta
	}
	for _, phase := range []string{"transfer", "catchup", "cleanup"} {
		if quanta[phase] < 2 {
			t.Fatalf("%s windows hold %d quanta: the work did not run in the gaps (%+v)", phase, quanta[phase], ref.MigrationSpans())
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
	if serial := sweep(MigrateConfig{Stride: 331, Parallel: 1}); !reflect.DeepEqual(serial, strided) {
		t.Fatalf("report differs between Parallel 1 and 8:\n%+v\n%+v", serial, strided)
	}
	// Read-mostly, so the catch-up log — and with it the window — is short.
	splitOnly := cfg
	splitOnly.Migrations, splitOnly.Mix = cfg.Migrations[:1], workload.YCSBB
	every := sweep(MigrateConfig{Server: splitOnly, Phases: []string{"catchup"}, CrashShards: []int{2}, Stride: 1})
	t.Logf("%d strided replays, %d every-primitive catch-up replays (%v)", strided.Replays, every.Replays, every.Points)
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
