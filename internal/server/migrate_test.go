package server

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// migCfg is the shared small-run base for migration tests.
func migCfg() Config {
	return Config{
		Shards:   2,
		Clients:  2,
		Ops:      6000,
		Keys:     2000,
		BatchOps: 256,
		Policy:   OpsPolicy{Every: 1024},
		Seed:     7,
	}
}

func runMig(t *testing.T, cfg Config) *Result {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	res, err := svc.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSplitMigrationClean runs one live split and checks the full
// consistency surface: per-shard KV==shadow, exactly-once application,
// global ownership on the final ring, and the recorded migration stats.
func TestSplitMigrationClean(t *testing.T) {
	cfg := migCfg()
	cfg.Migrations = []MigrateSpec{{Kind: MigrateSplit, Src: 0, AfterCuts: 2}}
	res := runMig(t, cfg)
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if len(res.Shards) != 3 {
		t.Fatalf("shard count %d after split, want 3", len(res.Shards))
	}
	if len(res.Migrations) != 1 {
		t.Fatalf("recorded %d migrations, want 1", len(res.Migrations))
	}
	m := res.Migrations[0]
	if m.Kind != "split" || m.Src != 0 || m.Dst != 2 {
		t.Fatalf("migration %+v, want split 0>2", m)
	}
	if m.MovedKeys == 0 || m.SlotCount == 0 || m.FlipEpoch == 0 {
		t.Fatalf("empty migration accounting: %+v", m)
	}
	if m.FlipPS <= m.StartPS {
		t.Fatalf("flip at %d not after start %d", m.FlipPS, m.StartPS)
	}
	if res.Shards[2].Ops == 0 {
		t.Fatal("split-spawned shard acked no ops")
	}
}

// TestMoveMigrationClean moves half of shard 1's slots to shard 0.
func TestMoveMigrationClean(t *testing.T) {
	cfg := migCfg()
	cfg.Migrations = []MigrateSpec{{Kind: MigrateMove, Src: 1, Dst: 0, AfterCuts: 2}}
	res := runMig(t, cfg)
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if len(res.Shards) != 2 {
		t.Fatalf("shard count %d after move, want 2", len(res.Shards))
	}
	if res.Migrations[0].Kind != "move" {
		t.Fatalf("migration %+v", res.Migrations[0])
	}
}

// TestMergeMigrationClean merges shard 1 into shard 0; the source must
// retire (stop serving) once its post-flip deletions committed, and the
// run must still verify clean.
func TestMergeMigrationClean(t *testing.T) {
	cfg := migCfg()
	cfg.Migrations = []MigrateSpec{{Kind: MigrateMerge, Src: 1, Dst: 0, AfterCuts: 2}}
	res := runMig(t, cfg)
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	m := res.Migrations[0]
	if m.Kind != "merge" || m.Src != 1 || m.Dst != 0 {
		t.Fatalf("migration %+v, want merge 1>0", m)
	}
	// After the flip all traffic lands on shard 0.
	if res.Shards[0].Ops == 0 {
		t.Fatal("merge target acked no ops")
	}
}

// TestMigrationSequence chains a split and a merge in one run: grow to
// three shards, then fold the new shard back into shard 1.
func TestMigrationSequence(t *testing.T) {
	cfg := migCfg()
	cfg.Ops = 10000
	cfg.Migrations = []MigrateSpec{
		{Kind: MigrateSplit, Src: 0, AfterCuts: 2},
		{Kind: MigrateMerge, Src: 2, Dst: 1, AfterCuts: 4},
	}
	res := runMig(t, cfg)
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if len(res.Migrations) != 2 {
		t.Fatalf("recorded %d migrations, want 2", len(res.Migrations))
	}
	if res.Migrations[0].Kind != "split" || res.Migrations[1].Kind != "merge" {
		t.Fatalf("migration order %+v", res.Migrations)
	}
	if res.Migrations[1].FlipEpoch <= res.Migrations[0].FlipEpoch {
		t.Fatalf("flip epochs not ordered: %d then %d",
			res.Migrations[0].FlipEpoch, res.Migrations[1].FlipEpoch)
	}
}

// TestMigrationIncrementalPipeline rides the flip on an incremental cut:
// the ring must flip at the commit transition of the quantum pipeline,
// not at a stop-the-world pause.
func TestMigrationIncrementalPipeline(t *testing.T) {
	cfg := migCfg()
	cfg.StepBudget = 64 << 10
	cfg.Migrations = []MigrateSpec{{Kind: MigrateSplit, Src: 1, AfterCuts: 2}}
	res := runMig(t, cfg)
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if len(res.Shards) != 3 {
		t.Fatalf("shard count %d, want 3", len(res.Shards))
	}
}

// TestMigrationDeterminism pins the determinism contract through a
// split+merge run: two executions of the same config produce identical
// results, including the migration accounting.
func TestMigrationDeterminism(t *testing.T) {
	cfg := migCfg()
	cfg.Migrations = []MigrateSpec{
		{Kind: MigrateSplit, Src: 0, AfterCuts: 2},
		{Kind: MigrateMove, Src: 2, Dst: 1, AfterCuts: 4},
	}
	a := runMig(t, cfg)
	b := runMig(t, cfg)
	if !a.OK() || !b.OK() {
		t.Fatalf("violations: %v / %v", a.Violations, b.Violations)
	}
	if a.TotalOps != b.TotalOps || a.SimPS != b.SimPS || a.Cuts != b.Cuts {
		t.Fatalf("aggregate drift: ops %d/%d sim %d/%d cuts %d/%d",
			a.TotalOps, b.TotalOps, a.SimPS, b.SimPS, a.Cuts, b.Cuts)
	}
	if len(a.Shards) != len(b.Shards) {
		t.Fatalf("shard counts %d/%d", len(a.Shards), len(b.Shards))
	}
	for i := range a.Shards {
		if a.Shards[i] != b.Shards[i] {
			t.Fatalf("shard %d stats drift:\n%+v\n%+v", i, a.Shards[i], b.Shards[i])
		}
	}
	if len(a.Migrations) != len(b.Migrations) {
		t.Fatalf("migration counts %d/%d", len(a.Migrations), len(b.Migrations))
	}
	for i := range a.Migrations {
		am, bm := a.Migrations[i], b.Migrations[i]
		if am != bm {
			t.Fatalf("migration %d drift:\n%+v\n%+v", i, am, bm)
		}
	}
}

// TestMigrationFreeRunsUnchanged: a migration-free config runs the same
// migration hooks as any other, which find nothing to do, so it reproduces
// itself exactly and reports no migration.
func TestMigrationFreeRunsUnchanged(t *testing.T) {
	cfg := migCfg()
	base := runMig(t, cfg)
	if !base.OK() {
		t.Fatalf("violations: %v", base.Violations)
	}
	// A second service instance must reproduce it exactly.
	again := runMig(t, cfg)
	for i := range base.Shards {
		if base.Shards[i] != again.Shards[i] {
			t.Fatalf("shard %d drift:\n%+v\n%+v", i, base.Shards[i], again.Shards[i])
		}
	}
	if base.Migrations != nil {
		t.Fatalf("migration-free run recorded migrations: %+v", base.Migrations)
	}
}

// TestExactlyOnceCheckedWithoutMigrations: every clean run checks that each
// op was applied by exactly one shard, migrations or not. One sequence
// number marked on a second shard and one cleared on its owner are two
// "applied" violations.
func TestExactlyOnceCheckedWithoutMigrations(t *testing.T) {
	cfg := migCfg()
	svc := newService(t, cfg)
	res, err := svc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	owner := func(seq int) *shard {
		for _, sh := range svc.shards {
			if sh.appliedBits[seq>>6]&(1<<(seq&63)) != 0 {
				return sh
			}
		}
		t.Fatalf("seq %d applied by no shard", seq)
		return nil
	}
	dup, lost := 10, 11
	markApplied(svc.shards[(owner(dup).id+1)%cfg.Shards].appliedBits, dup)
	owner(lost).appliedBits[lost>>6] &^= 1 << (lost & 63)
	var got Result
	svc.verifyApplied(&got)
	want := []Violation{
		{Shard: -1, Stage: "applied", Detail: "1 ops never applied by any shard"},
		{Shard: -1, Stage: "applied", Detail: "1 ops applied by more than one shard"},
	}
	if !reflect.DeepEqual(got.Violations, want) {
		t.Fatalf("violations %v, want %v", got.Violations, want)
	}
}

// TestProgressOutlivesMergedAwayReporter: progress is reported by the
// lowest-id shard still in the world, so a run whose shard 0 merges away
// still reports its last batch, (Ops, Ops) — as does the mirror-image merge
// that keeps shard 0.
func TestProgressOutlivesMergedAwayReporter(t *testing.T) {
	for _, m := range []MigrateSpec{
		{Kind: MigrateMerge, Src: 0, Dst: 1, AfterCuts: 2},
		{Kind: MigrateMerge, Src: 1, Dst: 0, AfterCuts: 2},
	} {
		cfg := migCfg()
		cfg.Migrations = []MigrateSpec{m}
		var done, total int
		cfg.Progress = func(d, n int) { done, total = d, n }
		res := runMig(t, cfg)
		if !res.OK() {
			t.Fatalf("merge %d>%d: violations: %v", m.Src, m.Dst, res.Violations)
		}
		if left := res.Shards[m.Src].SimPS; left >= res.SimPS {
			t.Fatalf("merge %d>%d: the source never retired, so the run proves nothing", m.Src, m.Dst)
		}
		if done != cfg.Ops || total != cfg.Ops {
			t.Fatalf("merge %d>%d: last progress %d/%d, want %d/%d", m.Src, m.Dst, done, total, cfg.Ops, cfg.Ops)
		}
	}
}

// TestAutoSplit drives the hot-shard trigger: under YCSB-A's skew the
// service must grow itself to the cap, and stay consistent.
func TestAutoSplit(t *testing.T) {
	cfg := migCfg()
	cfg.Ops = 12000
	cfg.AutoSplit = AutoSplitSpec{MaxShards: 4}
	res := runMig(t, cfg)
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if len(res.Shards) != 4 {
		t.Fatalf("autosplit grew to %d shards, want 4", len(res.Shards))
	}
	if len(res.Migrations) != 2 {
		t.Fatalf("autosplit recorded %d migrations, want 2", len(res.Migrations))
	}
	for _, m := range res.Migrations {
		if m.Kind != "split" {
			t.Fatalf("autosplit produced %+v", m)
		}
	}
}

// TestMigrateConfigRejects pins the config error surface.
func TestMigrateConfigRejects(t *testing.T) {
	cfg := migCfg()
	cfg.Replicas = 1
	cfg.Migrations = []MigrateSpec{{Kind: MigrateSplit, Src: 0}}
	if _, err := New(cfg); !errors.Is(err, ErrMigrateReplicas) {
		t.Fatalf("replicas+migrations: got %v, want ErrMigrateReplicas", err)
	}

	cfg = migCfg()
	cfg.Migrations = []MigrateSpec{{Kind: "rebalance", Src: 0}}
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown kind accepted")
	}

	cfg = migCfg()
	cfg.Migrations = []MigrateSpec{{Kind: MigrateSplit, Src: 0}}
	cfg.AutoSplit = AutoSplitSpec{MaxShards: 4}
	if _, err := New(cfg); err == nil {
		t.Fatal("migrations+autosplit accepted")
	}

	cfg = migCfg()
	cfg.AutoSplit = AutoSplitSpec{MaxShards: 1}
	if _, err := New(cfg); err == nil {
		t.Fatal("autosplit cap below boot shards accepted")
	}
}

// TestMigrationCrashRecovery crashes the source shard at a fixed point
// mid-run while a split is in flight and checks coordinated recovery:
// every member lands on one global epoch, each image matches its snapshot
// at that epoch, and the landing ring routes liveness probes.
func TestMigrationCrashRecovery(t *testing.T) {
	for _, at := range []int64{2000, 6000, 12000} {
		cfg := migCfg()
		cfg.Migrations = []MigrateSpec{{Kind: MigrateSplit, Src: 0, AfterCuts: 2}}
		cfg.Crash = &CrashSpec{Shard: 0, At: at}
		svc := newService(t, cfg)
		res, err := svc.Run()
		if err != nil {
			t.Fatalf("at=%d: %v", at, err)
		}
		if !res.OK() {
			t.Fatalf("at=%d: violations: %v", at, res.Violations)
		}
		if !res.Recovered {
			t.Fatalf("at=%d: not recovered", at)
		}
	}
}

// TestMigrationSpansRecorded checks the torture sweep's input: a clean run
// with a migration reports per-phase primitive windows for both ends of the
// transfer.
func TestMigrationSpansRecorded(t *testing.T) {
	cfg := migCfg()
	cfg.Migrations = []MigrateSpec{{Kind: MigrateSplit, Src: 0, AfterCuts: 2}}
	svc := newService(t, cfg)
	res, err := svc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	spans := svc.MigrationSpans()
	phases := map[string]bool{}
	shards := map[int]bool{}
	for _, sp := range spans {
		if sp.Hi < sp.Lo {
			t.Fatalf("inverted span %+v", sp)
		}
		phases[sp.Phase] = true
		shards[sp.Shard] = true
	}
	for _, want := range []string{"transfer", "catchup", "flip"} {
		if !phases[want] {
			t.Fatalf("no %q span recorded (spans: %+v)", want, spans)
		}
	}
	if !shards[0] || !shards[2] {
		t.Fatalf("spans missing a participant: %+v", spans)
	}
}

// TestRecoveryRoutesOnLandingRing crashes shard 1 just before the end of its
// serving span, after a split and a merge have both flipped: every key a
// recovered member holds must be its own on the ring recovery routes on, the
// boot ring with the migration records' flips up to the landing epoch.
func TestRecoveryRoutesOnLandingRing(t *testing.T) {
	cfg := migCfg()
	cfg.Ops = 40_000
	cfg.Migrations = []MigrateSpec{
		{Kind: MigrateSplit, Src: 0, AfterCuts: 2},
		{Kind: MigrateMerge, Src: 2, Dst: 1, AfterCuts: 6},
	}
	ref := newService(t, cfg)
	if res, err := ref.Run(); err != nil || !res.OK() {
		t.Fatalf("reference run: %v %v", err, res)
	}
	end := ref.PrimitiveSpans()[1][1]
	for _, back := range []int64{1, 50, 500} {
		cfg.Crash = &CrashSpec{Shard: 1, At: end - back}
		svc := newService(t, cfg)
		res, err := svc.Run()
		if err != nil {
			t.Fatalf("%d before the end: %v", back, err)
		}
		if !res.OK() || !res.Recovered {
			t.Fatalf("%d before the end: recovered %v, violations %v", back, res.Recovered, res.Violations)
		}
		misrouted := 0
		for _, sh := range svc.shards {
			if sh.retired {
				continue
			}
			for _, p := range sh.kv.Scan(0, sh.kv.Len()) {
				if svc.ring.Owner(p.Key) != sh.id {
					misrouted++
				}
			}
		}
		t.Logf("%d primitives before the end: landing epoch %d, %d misrouted keys", back, res.RecoveredEpoch, misrouted)
		if misrouted > 0 {
			t.Errorf("%d primitives before the end: %d recovered keys sit on a shard the landing ring does not route them to", back, misrouted)
		}
	}
}

// TestSnapshotPanicFailsTheRun: a panic on a split's source rank — an
// index into an empty slice right before its snapshot — fails the world,
// so Run re-raises that panic at once instead of leaving the other rank
// parked at its next collective forever.
func TestSnapshotPanicFailsTheRun(t *testing.T) {
	cfg := migCfg()
	cfg.Migrations = []MigrateSpec{{Kind: MigrateSplit, Src: 0, AfterCuts: 2}}
	svc := newService(t, cfg)
	var empty []int
	panicking := make(chan struct{})
	svc.beforeSnapshot = func(sh *shard, _ *migration) {
		close(panicking)
		_ = empty[sh.id]
	}
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		_, _ = svc.Run()
	}()
	select {
	case <-panicking:
	case p := <-done:
		t.Fatalf("Run ended (%v) before the source took its snapshot", p)
	case <-time.After(time.Minute):
		t.Fatal("the source never took its snapshot")
	}
	select {
	case p := <-done:
		if err, ok := p.(runtime.Error); !ok || !strings.Contains(err.Error(), "index out of range") {
			t.Fatalf("Run re-raised %v, want the source rank's index panic", p)
		}
	case <-time.After(time.Second):
		t.Fatal("Run still waiting a second after the source rank panicked")
	}
}

// TestMigrationShipsSourceState corrupts some moving keys in the split
// source's KV alone, right before its snapshot: the migration must carry the
// corrupt values to the destination, where the sequential replay finds them.
// A snapshot read from the oracle would ship the right values and delete the
// bad ones, and the run would verify clean.
func TestMigrationShipsSourceState(t *testing.T) {
	cfg := migCfg()
	cfg.Migrations = []MigrateSpec{{Kind: MigrateSplit, Src: 0, AfterCuts: 2}}
	svc := newService(t, cfg)
	corrupted := 0
	svc.beforeSnapshot = func(sh *shard, m *migration) {
		for _, p := range sh.kv.Scan(0, sh.kv.Len()) {
			if corrupted == 16 {
				return
			}
			if m.slots[sh.ring.Slot(p.Key)] {
				if err := sh.kv.Put(p.Key, 0xDEAD); err != nil {
					t.Fatal(err)
				}
				corrupted++
			}
		}
	}
	res, err := svc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if corrupted != 16 {
		t.Fatalf("corrupted %d moving keys, want 16", corrupted)
	}
	for _, v := range res.Violations {
		if v.Stage == "ownership" {
			t.Logf("caught: %v", v)
			return
		}
	}
	t.Fatalf("corrupt source values moved without an ownership violation (violations: %v)", res.Violations)
}
