package torture

import (
	"fmt"
	"slices"

	"libcrpm/internal/sched"
	"libcrpm/internal/server"
)

// MigrateConfig parameterizes the live-migration crash sweep: a reference
// run of a migratory service (Config.Migrations / AutoSplit) records each
// migration phase's device-primitive window on both participating shards
// — mid-transfer, mid-catch-up, around the ownership flip, and through the
// source's cleanup; the install, replay and delete quanta interleave with
// requests inside those windows — then the identical run is crashed at
// every strided point inside those windows, recovered with the coordinated
// protocol, and verified. Zero tolerance:
// a crash anywhere in a migration must lose no committed op, double-apply
// nothing across the handoff, and land every member on one global epoch
// with a ring to match.
type MigrateConfig struct {
	// Server is the migratory service under torture. Migrations or
	// AutoSplit must be set; Crash must be nil (the sweep owns injection).
	// Liveness is forced on for replays.
	Server server.Config
	// Phases filters the swept migration phases (nil = transfer, catchup,
	// flip, cleanup).
	Phases []string
	// CrashShards filters the shards injected into (nil = both ends of
	// every migration).
	CrashShards []int
	// Stride tests every Stride-th crash point of a phase window
	// (default: sized so each (span, policy) combo replays about 32
	// points).
	Stride int
	// Policies select the crash-image schedules (nil = the standard
	// three, seeded from Server.Seed).
	Policies []Policy
	// Parallel bounds concurrent replays (0 = GOMAXPROCS). Each replay
	// owns its own service world, so the violation report is
	// byte-identical at any setting.
	Parallel int
	// Progress, if non-nil, is called after each (span, policy) combo.
	Progress func(shard int, phase, policy string, points, violations int)
}

// MigrateSweep runs the migration crash matrix, reporting per-combo point
// counts under "shard<i>/<phase>/<policy>" keys.
func MigrateSweep(cfg MigrateConfig) (ServiceResult, error) {
	res := ServiceResult{Points: make(map[string]int)}
	if cfg.Server.Crash != nil {
		return res, fmt.Errorf("torture: MigrateConfig.Server.Crash must be nil")
	}
	if len(cfg.Server.Migrations) == 0 && cfg.Server.AutoSplit.MaxShards == 0 {
		return res, fmt.Errorf("torture: MigrateSweep needs a migratory config (Migrations or AutoSplit)")
	}
	base := cfg.Server
	base.Liveness = true
	ref, err := server.New(base)
	if err != nil {
		return res, fmt.Errorf("torture: migration reference: %w", err)
	}
	refRes, err := ref.Run()
	if err != nil {
		return res, fmt.Errorf("torture: migration reference run: %w", err)
	}
	if !refRes.OK() {
		return res, fmt.Errorf("torture: migration reference run inconsistent: %v", refRes.Violations[0])
	}
	spans := ref.MigrationSpans()
	if len(spans) == 0 {
		return res, fmt.Errorf("torture: reference run recorded no migration spans")
	}
	phases := map[string]bool{"transfer": true, "catchup": true, "flip": true, "cleanup": true}
	if cfg.Phases != nil {
		phases = map[string]bool{}
		for _, p := range cfg.Phases {
			phases[p] = true
		}
	}
	policies := cfg.Policies
	if policies == nil {
		policies = StandardPolicies(base.Seed)
	}

	for _, ms := range spans {
		if !phases[ms.Phase] || (cfg.CrashShards != nil && !slices.Contains(cfg.CrashShards, ms.Shard)) {
			continue
		}
		lo, hi := ms.Lo, ms.Hi
		if hi <= lo+1 {
			continue // a phase with no primitives on this shard has no crash points
		}
		stride := cfg.Stride
		if stride <= 0 {
			stride = int((hi - lo) / 32)
			if stride < 1 {
				stride = 1
			}
		}
		var ks []int64
		for k := lo + 1; k < hi; k += int64(stride) {
			ks = append(ks, k)
		}
		for _, pol := range policies {
			vs := sched.Map(len(ks), sched.Options{Workers: cfg.Parallel}, func(i int) []ServiceViolation {
				return serviceReplay(base, ms.Shard, pol, "", ks[i], false)
			})
			res.Replays += len(ks)
			key := fmt.Sprintf("shard%d/%s/%s", ms.Shard, ms.Phase, pol.Name)
			res.Points[key] += len(ks)
			bad := 0
			for _, cell := range vs {
				bad += len(cell)
				res.Violations = append(res.Violations, cell...)
			}
			if cfg.Progress != nil {
				cfg.Progress(ms.Shard, ms.Phase, pol.Name, len(ks), bad)
			}
		}
	}
	return res, nil
}
