package server

import (
	"errors"
	"reflect"
	"testing"

	"libcrpm/internal/workload"
)

// incllCfg is smallCfg served from the in-cache-line-logging backend.
func incllCfg() Config {
	cfg := smallCfg()
	cfg.Backend = BackendInCLL
	return cfg
}

// TestInCLLCleanRun: every YCSB mix serves to completion from the incll
// backend with the KV exactly matching the acked-op shadow on every shard.
func TestInCLLCleanRun(t *testing.T) {
	for _, mix := range append(workload.YCSBMixes(), workload.YCSBCrud) {
		cfg := incllCfg()
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

// TestInCLLRBMapService: the ordered structure over incll, scan-heavy mix.
func TestInCLLRBMapService(t *testing.T) {
	cfg := incllCfg()
	cfg.DS = DSRBMap
	cfg.Mix = workload.YCSBE
	cfg.Ops = 3000
	res := mustRun(t, cfg)
	if !res.OK() {
		t.Fatalf("%d violations, first: %v", len(res.Violations), res.Violations[0])
	}
}

// TestInCLLRunDeterminism: the full Result is identical across repeated
// runs and verification parallelism.
func TestInCLLRunDeterminism(t *testing.T) {
	base := incllCfg()
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

// TestInCLLCrashRecoveryConverges: crashes across the serving span of two
// shards recover every shard to one global epoch with the landing epoch's
// exact acked state, and the recovered service still serves and commits.
func TestInCLLCrashRecoveryConverges(t *testing.T) {
	cfg := incllCfg()
	cfg.Ops = 3000
	ref := newService(t, cfg)
	if _, err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	spans := ref.PrimitiveSpans()
	for _, shard := range []int{0, 2} {
		base, end := spans[shard][0], spans[shard][1]
		if end <= base {
			t.Fatalf("shard %d: empty serving span [%d,%d)", shard, base, end)
		}
		for _, at := range []int64{base + 1, base + (end-base)/3, base + (end-base)/2, end - 1} {
			ccfg := cfg
			ccfg.Crash = &CrashSpec{Shard: shard, At: at}
			res := mustRun(t, ccfg)
			if res.CrashedShard != shard {
				t.Fatalf("crash at %d reported on shard %d, want %d", at, res.CrashedShard, shard)
			}
			if !res.Recovered {
				t.Fatalf("shard %d at %d: not recovered: %v", shard, at, res.Violations)
			}
			if !res.OK() {
				t.Fatalf("shard %d at %d: %d violations, first: %v",
					shard, at, len(res.Violations), res.Violations[0])
			}
			if res.RecoveredEpoch < 1 {
				t.Fatalf("shard %d at %d: landed on epoch %d before the populate cut",
					shard, at, res.RecoveredEpoch)
			}
		}
	}
}

// TestInCLLCrashDeterminism: the same crash point yields the same Result.
func TestInCLLCrashDeterminism(t *testing.T) {
	cfg := incllCfg()
	cfg.Ops = 2000
	ref := newService(t, cfg)
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

// TestInCLLConfigExclusions: the incll backend rejects the feature set it
// cannot serve — replication and the incremental cut pipeline — with the
// typed errors, and unknown backend names fail validation.
func TestInCLLConfigExclusions(t *testing.T) {
	base := incllCfg()

	cfg := base
	cfg.Replicas = 2
	if _, err := New(cfg); !errors.Is(err, ErrInCLLReplicas) {
		t.Fatalf("replicas: err = %v, want ErrInCLLReplicas", err)
	}

	cfg = base
	cfg.StepBudget = 4096
	if _, err := New(cfg); !errors.Is(err, ErrInCLLIncremental) {
		t.Fatalf("step budget: err = %v, want ErrInCLLIncremental", err)
	}

	cfg = base
	cfg.Policy = PausePolicy{}
	if _, err := New(cfg); !errors.Is(err, ErrInCLLIncremental) {
		t.Fatalf("pause policy: err = %v, want ErrInCLLIncremental", err)
	}

	cfg = smallCfg()
	cfg.Backend = "mmap"
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown backend should fail validation")
	}
}

// TestBackendDefaultUnchanged: leaving Backend empty is byte-identical to
// naming the core backend explicitly — the new axis cannot perturb any
// existing figure.
func TestBackendDefaultUnchanged(t *testing.T) {
	implicit := mustRun(t, smallCfg())
	cfg := smallCfg()
	cfg.Backend = BackendCore
	explicit := mustRun(t, cfg)
	if !reflect.DeepEqual(implicit, explicit) {
		t.Fatalf("explicit core backend differs from default:\n%+v\nvs\n%+v", implicit, explicit)
	}
}
