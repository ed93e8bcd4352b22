package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"libcrpm/internal/core"
	"libcrpm/internal/measure"
	"libcrpm/internal/obs"
	"libcrpm/internal/replica"
	"libcrpm/internal/workload"
)

// digestRow is one cell of the feature product: a config and, for crashed
// rows, where in the crashed shard's serving span the power fails (as a
// fraction, resolved against a crash-free reference run of the same
// config, so the row stays meaningful if a span's absolute indices move).
type digestRow struct {
	name       string
	cfg        func() Config
	crashShard int
	crashFrac  float64 // 0 = clean run
}

func digestRows() []digestRow {
	pause := NewPausePolicy(2 * time.Microsecond)
	open := func(cfg Config, target float64) Config {
		cfg.Ops, cfg.Keys = 20_000, 4_000
		cfg.Policy = OpsPolicy{Every: 2048}
		cfg.Measure = &measure.Config{TargetOps: target, WarmupOps: 1_000, IntervalPS: 1_000_000_000}
		return cfg
	}
	mig := func(specs ...MigrateSpec) Config {
		cfg := migCfg()
		cfg.HeapSize, cfg.Buckets = 2<<20, 1<<10
		cfg.Migrations = specs
		return cfg
	}
	splitMoveMerge := []MigrateSpec{
		{Kind: MigrateSplit, Src: 0, AfterCuts: 2},
		{Kind: MigrateMove, Src: 1, Dst: 0, AfterCuts: 3},
		{Kind: MigrateMerge, Src: 2, Dst: 1, AfterCuts: 4},
	}
	return []digestRow{
		{name: "stw/core", cfg: smallCfg},
		{name: "stw/buffered", cfg: func() Config { c := smallCfg(); c.Mode = core.ModeBuffered; return c }},
		{name: "stw/incll-crud", cfg: func() Config { c := incllCfg(); c.Mix = workload.YCSBCrud; return c }},
		{name: "stw/rbmap-interval", cfg: func() Config {
			c := smallCfg()
			c.DS, c.Mix, c.Policy = DSRBMap, workload.YCSBF, IntervalPolicy{Every: 100 * time.Microsecond}
			return c
		}},
		{name: "pause/core", cfg: incCfg},
		{name: "pause/buffered", cfg: func() Config { c := incCfg(); c.Mode = core.ModeBuffered; return c }},
		{name: "budget/core", cfg: func() Config { c := smallCfg(); c.StepBudget = 16 << 10; return c }},
		{name: "budget/buffered-dirty", cfg: func() Config {
			c := smallCfg()
			c.Mode, c.StepBudget, c.Policy = core.ModeBuffered, 8<<10, DirtyBytesPolicy{Bytes: 64 << 10}
			return c
		}},
		{name: "replicas/stw-mix", cfg: func() Config { c := replCfg(); c.Audit = true; return c }},
		{name: "replicas/pause-bounded", cfg: func() Config {
			c := replCfg()
			c.Policy = pause
			c.SLAs = []replica.SLA{{Level: replica.BoundedStaleness, Bound: 2}, {Level: replica.ReadMyWrites}}
			return c
		}},
		{name: "replicas/stw-kill", cfg: replCfg, crashShard: 1, crashFrac: 0.5},
		{name: "replicas/pause-kill", cfg: func() Config { c := replCfg(); c.Policy = pause; return c }, crashShard: 2, crashFrac: 0.6},
		{name: "replicas/budget-kill-late", cfg: func() Config {
			c := replCfg()
			c.Mode, c.StepBudget = core.ModeBuffered, 4<<10
			return c
		}, crashShard: 0, crashFrac: 0.9},
		{name: "crash/stw", cfg: smallCfg, crashShard: 3, crashFrac: 0.4},
		{name: "crash/pause", cfg: incCfg, crashShard: 0, crashFrac: 0.7},
		{name: "crash/incll", cfg: incllCfg, crashShard: 2, crashFrac: 0.3},
		{name: "migrate/stw-split-move-merge", cfg: func() Config { return mig(splitMoveMerge...) }},
		{name: "migrate/stw-forced-drain", cfg: func() Config {
			return mig(MigrateSpec{Kind: MigrateSplit, Src: 0, AfterCuts: 1000}, MigrateSpec{Kind: MigrateMerge, Src: 2, Dst: 1, AfterCuts: 1000})
		}},
		{name: "migrate/budget-midrun", cfg: func() Config {
			c := mig(MigrateSpec{Kind: MigrateSplit, Src: 0, AfterCuts: 1}, MigrateSpec{Kind: MigrateMerge, Src: 2, Dst: 1, AfterCuts: 3})
			c.Ops, c.StepBudget = 12_000, 64<<10
			return c
		}},
		{name: "migrate/pause-midrun", cfg: func() Config {
			c := mig(MigrateSpec{Kind: MigrateMove, Src: 1, Dst: 0, AfterCuts: 1})
			c.Ops, c.Policy = 40_000, pause
			return c
		}},
		// The one row where the batches run out with migrations still to do
		// under the incremental pipeline: both flips ride forced cuts of the
		// end-of-run drain, and the second cut checkpoints the first flip's
		// source-side deletions.
		{name: "migrate/budget-forced-drain", cfg: func() Config {
			c := mig(MigrateSpec{Kind: MigrateSplit, Src: 0, AfterCuts: 1000}, MigrateSpec{Kind: MigrateMerge, Src: 2, Dst: 1, AfterCuts: 1000})
			c.StepBudget = 64 << 10
			return c
		}},
		{name: "migrate/autosplit", cfg: func() Config {
			c := migCfg()
			c.HeapSize, c.Buckets = 2<<20, 1<<10
			c.Ops, c.Mix = 12_000, workload.YCSBA
			c.AutoSplit = AutoSplitSpec{MaxShards: 4, HotFactor: 1.01}
			return c
		}},
		{name: "migrate/stw-crash", cfg: func() Config { return mig(splitMoveMerge...) }, crashShard: 1, crashFrac: 0.8},
		{name: "migrate/budget-crash", cfg: func() Config {
			c := mig(splitMoveMerge...)
			c.StepBudget = 64 << 10
			return c
		}, crashShard: 0, crashFrac: 0.5},
		// Crashes after the merged-away source retired from the world: it
		// recovers on its own, outside the coordinated protocol.
		{name: "migrate/stw-crash-retired", cfg: func() Config {
			c := mig(MigrateSpec{Kind: MigrateSplit, Src: 0, AfterCuts: 1}, MigrateSpec{Kind: MigrateMerge, Src: 2, Dst: 1, AfterCuts: 3})
			c.Ops = 12_000
			return c
		}, crashShard: 1, crashFrac: 0.9},
		{name: "migrate/budget-crash-retired", cfg: func() Config {
			c := mig(MigrateSpec{Kind: MigrateSplit, Src: 0, AfterCuts: 1}, MigrateSpec{Kind: MigrateMerge, Src: 2, Dst: 1, AfterCuts: 3})
			c.Ops, c.StepBudget = 12_000, 64<<10
			return c
		}, crashShard: 0, crashFrac: 0.95},
		{name: "open/stw", cfg: func() Config { return open(smallCfg(), 2e6) }},
		{name: "open/pause-idle-gaps", cfg: func() Config {
			c := open(smallCfg(), 1e6)
			c.Policy = pause
			return c
		}},
		{name: "open/budget-saturated", cfg: func() Config {
			c := open(smallCfg(), 50e6)
			c.StepBudget = 16 << 10
			return c
		}},
		{name: "open/stw-split-merge", cfg: func() Config {
			c := open(mig(MigrateSpec{Kind: MigrateSplit, Src: 0, AfterCuts: 2}, MigrateSpec{Kind: MigrateMerge, Src: 2, Dst: 1, AfterCuts: 5}), 1e6)
			return c
		}},
		{name: "open/pause-split", cfg: func() Config {
			c := open(mig(MigrateSpec{Kind: MigrateSplit, Src: 0, AfterCuts: 2}), 1e6)
			c.Policy = pause
			return c
		}},
		{name: "open/stw-crash", cfg: func() Config { return open(smallCfg(), 2e6) }, crashShard: 1, crashFrac: 0.5},
	}
}

// runDigest runs one row with tracing and liveness on and returns the
// sha256 of its Result (stats, violations, migrations, audits, measure
// report — everything but the trace, as JSON) and of its Chrome trace.
func runDigest(t *testing.T, row digestRow) (result, trace string, res *Result) {
	t.Helper()
	cfg := row.cfg()
	cfg.Trace, cfg.Liveness, cfg.Parallel = true, true, 1
	if row.crashFrac > 0 {
		ref, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Run(); err != nil {
			t.Fatal(err)
		}
		span := ref.PrimitiveSpans()[row.crashShard]
		cfg.Crash = &CrashSpec{Shard: row.crashShard, At: span[0] + int64(float64(span[1]-span[0])*row.crashFrac)}
	}
	res = mustRun(t, cfg)
	var tr bytes.Buffer
	if err := obs.WriteChromeTrace(&tr, res.Trace); err != nil {
		t.Fatal(err)
	}
	flat := *res
	flat.Trace = nil
	js, err := json.Marshal(flat)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(js)), fmt.Sprintf("%x", sha256.Sum256(tr.Bytes())), res
}

// TestFeatureProductDigest pins the service's observable output over the
// product of its features — cut style × backend × replication × resharding
// × open loop × crash recovery — to digests captured before the cut paths
// and the recovery paths were unified. A refactor of the serving loop must
// leave every row untouched; a row that is meant to move is regenerated
// with UPDATE_DIGESTS=1 and the reason goes into CHANGES.md.
func TestFeatureProductDigest(t *testing.T) {
	path := filepath.Join("testdata", "feature_digests.txt")
	rows := digestRows()
	type got struct{ result, trace string }
	out := make([]got, len(rows))
	t.Run("rows", func(t *testing.T) {
		for i, row := range rows {
			t.Run(row.name, func(t *testing.T) {
				t.Parallel()
				r, tr, res := runDigest(t, row)
				if !res.OK() {
					t.Fatalf("%d violations, first: %v", len(res.Violations), res.Violations[0])
				}
				if crashed := row.crashFrac > 0; crashed != res.Recovered {
					t.Fatalf("crash row %v, recovered %v", crashed, res.Recovered)
				}
				out[i] = got{r, tr}
				t.Logf("cuts %d, sim %d ps, landed %d, failed over %v, migrations %+v",
					res.Cuts, res.SimPS, res.RecoveredEpoch, res.FailedOver, res.Migrations)
			})
		}
	})
	if t.Failed() {
		return
	}
	if os.Getenv("UPDATE_DIGESTS") != "" {
		var b strings.Builder
		for i, row := range rows {
			fmt.Fprintf(&b, "%s %s %s\n", row.name, out[i].result, out[i].trace)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing digests (run with UPDATE_DIGESTS=1 to create): %v", err)
	}
	want := map[string]got{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		f := strings.Fields(line)
		if len(f) != 3 {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		want[f[0]] = got{f[1], f[2]}
	}
	if len(want) != len(rows) {
		t.Errorf("%s holds %d rows, the table %d", path, len(want), len(rows))
	}
	for i, row := range rows {
		w, ok := want[row.name]
		switch {
		case !ok:
			t.Errorf("%s: no stored digest", row.name)
		case w.result != out[i].result:
			t.Errorf("%s: Result digest %s, stored %s", row.name, out[i].result, w.result)
		case w.trace != out[i].trace:
			t.Errorf("%s: Result identical but trace digest %s, stored %s", row.name, out[i].trace, w.trace)
		}
	}
}
