package main

import (
	"errors"
	"testing"

	"libcrpm/internal/replica"
	"libcrpm/internal/server"
	"libcrpm/internal/workload"
)

// TestValidateReplFlags is the satellite flag-validation contract: every
// nonsense replication flag combination is rejected with ErrBadFlags, and
// every valid one resolves.
func TestValidateReplFlags(t *testing.T) {
	bad := []struct {
		name                   string
		replicas, kill, shards int
		sla                    string
	}{
		{"negative replicas", -1, -1, 4, ""},
		{"sla without replicas", 0, -1, 4, "mix"},
		{"killprimary without replicas", 0, 2, 4, ""},
		{"killprimary out of range", 2, 4, 4, "mix"},
		{"unknown sla", 2, -1, 4, "strongest"},
		{"malformed bound", 2, -1, 4, "bounded:x"},
		{"malformed latency", 2, -1, 4, "strong@fast"},
	}
	for _, c := range bad {
		if _, err := validateReplFlags(c.replicas, c.sla, c.kill, c.shards); !errors.Is(err, ErrBadFlags) {
			t.Fatalf("%s: err = %v, want ErrBadFlags", c.name, err)
		}
	}
	if set, err := validateReplFlags(0, "", -1, 4); err != nil || set != nil {
		t.Fatalf("replication off: %v, %v", set, err)
	}
	set, err := validateReplFlags(2, "mix", 1, 4)
	if err != nil || len(set) != 5 {
		t.Fatalf("valid flags: %v, %v", set, err)
	}
	set, err = validateReplFlags(1, "bounded:3@2us", -1, 2)
	if err != nil || len(set) != 1 || set[0].Bound != 3 {
		t.Fatalf("bounded spec: %v, %v", set, err)
	}
}

// TestValidateMigrateFlags is the elastic-resharding flag contract: every
// nonsense -migrate / -autosplit value is rejected with ErrBadFlags, every
// valid spec parses to the matching server.MigrateSpec list, and the
// combinations the service excludes (server's exclusions table) come back
// from newService as ErrBadFlags around the service's own typed error — the
// CLI decides none of them itself.
func TestValidateMigrateFlags(t *testing.T) {
	bad := []struct {
		name      string
		spec      string
		autosplit int
	}{
		{"negative autosplit", "", -1},
		{"empty entries", " , ,", 0},
		{"missing kind", "0>2@4", 0},
		{"unknown kind", "rebalance:0@2", 0},
		{"split with dst", "split:0>2@2", 0},
		{"move without dst", "move:1@4", 0},
		{"merge without dst", "merge:1@4", 0},
		{"bad src", "split:x@2", 0},
		{"bad dst", "move:1>y@4", 0},
		{"bad cuts", "split:0@zero", 0},
		{"zero cuts", "split:0@0", 0},
	}
	for _, c := range bad {
		if _, _, err := validateMigrateFlags(c.spec, c.autosplit); !errors.Is(err, ErrBadFlags) {
			t.Fatalf("%s: err = %v, want ErrBadFlags", c.name, err)
		}
	}
	excluded := []struct {
		name                string
		spec                string
		autosplit, replicas int
		typed               error // nil: the pair has no exported error
	}{
		{"migrate with replicas", "split:0@2", 0, 1, server.ErrMigrateReplicas},
		{"autosplit with replicas", "", 4, 2, server.ErrMigrateReplicas},
		{"migrate and autosplit", "split:0@2", 4, 0, nil},
	}
	for _, c := range excluded {
		specs, as, err := validateMigrateFlags(c.spec, c.autosplit)
		if err != nil {
			t.Fatalf("%s: the flags parse on their own, got %v", c.name, err)
		}
		_, err = newService(server.Config{Shards: 2, Clients: 2, Ops: 100, Keys: 100,
			Replicas: c.replicas, Migrations: specs, AutoSplit: as})
		if !errors.Is(err, ErrBadFlags) || (c.typed != nil && !errors.Is(err, c.typed)) {
			t.Fatalf("%s: err = %v, want ErrBadFlags around %v", c.name, err, c.typed)
		}
	}
	if _, err := newService(server.Config{Shards: 2, Clients: 2, Ops: 100, Keys: 100}); err != nil {
		t.Fatalf("plain config: %v", err)
	}

	specs, as, err := validateMigrateFlags("", 0)
	if err != nil || specs != nil || as.MaxShards != 0 {
		t.Fatalf("elastic off: %v, %v, %v", specs, as, err)
	}
	specs, _, err = validateMigrateFlags("split:0@2, move:1>2@4,merge:3>1@6", 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []server.MigrateSpec{
		{Kind: server.MigrateSplit, Src: 0, AfterCuts: 2},
		{Kind: server.MigrateMove, Src: 1, Dst: 2, AfterCuts: 4},
		{Kind: server.MigrateMerge, Src: 3, Dst: 1, AfterCuts: 6},
	}
	if len(specs) != len(want) {
		t.Fatalf("parsed %d specs, want %d: %+v", len(specs), len(want), specs)
	}
	for i := range want {
		if specs[i] != want[i] {
			t.Fatalf("spec %d: %+v, want %+v", i, specs[i], want[i])
		}
	}
	// @CUTS is optional (server defaults it).
	specs, _, err = validateMigrateFlags("split:1", 0)
	if err != nil || len(specs) != 1 || specs[0].AfterCuts != 0 {
		t.Fatalf("default cuts: %+v, %v", specs, err)
	}
	_, as, err = validateMigrateFlags("", 8)
	if err != nil || as.MaxShards != 8 {
		t.Fatalf("autosplit: %+v, %v", as, err)
	}
}

// TestBuildTableMigrationMetrics: migration metrics appear exactly for
// migratory runs, so migration-free output stays byte-compatible.
func TestBuildTableMigrationMetrics(t *testing.T) {
	cfg := server.Config{
		Shards: 2, Clients: 2, Mix: workload.YCSBA, Ops: 4000, Keys: 1000,
		HeapSize: 1 << 21, Buckets: 1 << 10, BatchOps: 256,
		Policy: server.OpsPolicy{Every: 512}, Seed: 3,
		Migrations: []server.MigrateSpec{{Kind: server.MigrateSplit, Src: 0, AfterCuts: 1}},
	}
	svc, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatal(res.Violations[0])
	}
	tb := buildTable(cfg, "default", "hashmap", res)
	if tb.Metrics["serve_migrations"] != 1 {
		t.Fatalf("serve_migrations = %v, want 1", tb.Metrics["serve_migrations"])
	}
	if tb.Metrics["serve_migrated_keys"] <= 0 {
		t.Fatalf("serve_migrated_keys = %v, want > 0", tb.Metrics["serve_migrated_keys"])
	}
	if len(res.Shards) != 3 {
		t.Fatalf("split did not grow the table: %d shard rows", len(res.Shards))
	}
}

// TestBuildTableReplicaColumns: the replica columns appear exactly when
// replication is on, so unreplicated output stays byte-compatible.
func TestBuildTableReplicaColumns(t *testing.T) {
	cfg := server.Config{
		Shards: 2, Clients: 2, Mix: workload.YCSBB, Ops: 2000, Keys: 500,
		HeapSize: 1 << 20, Buckets: 1 << 9, BatchOps: 256,
		Policy: server.OpsPolicy{Every: 512}, Seed: 3,
	}
	run := func(cfg server.Config) *server.Result {
		svc, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := svc.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK() {
			t.Fatal(res.Violations[0])
		}
		return res
	}
	plain := buildTable(cfg, "default", "hashmap", run(cfg))
	if got, want := len(plain.Header), 12; got != want {
		t.Fatalf("unreplicated header has %d columns, want %d: %v", got, want, plain.Header)
	}
	if _, ok := plain.Metrics["serve_sec_reads"]; ok {
		t.Fatal("unreplicated table has replica metrics")
	}
	rcfg := cfg
	rcfg.Replicas = 2
	rcfg.SLAs = replica.Mix()
	repl := buildTable(rcfg, "default", "hashmap", run(rcfg))
	if got, want := len(repl.Header), 16; got != want {
		t.Fatalf("replicated header has %d columns, want %d: %v", got, want, repl.Header)
	}
	for _, row := range repl.Rows {
		if len(row) != len(repl.Header) {
			t.Fatalf("row width %d != header %d: %v", len(row), len(repl.Header), row)
		}
	}
	if _, ok := repl.Metrics["serve_sec_reads"]; !ok {
		t.Fatal("replicated table missing serve_sec_reads")
	}
}
