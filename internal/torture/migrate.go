package torture

import (
	"fmt"
	"slices"

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
}

// MigrateSweep runs the migration crash matrix, reporting per-combo point
// counts under "shard<i>/<phase>/<policy>" keys.
func MigrateSweep(cfg MigrateConfig) (ServiceResult, error) {
	res := ServiceResult{Points: make(map[string]int)}
	if len(cfg.Server.Migrations) == 0 && cfg.Server.AutoSplit.MaxShards == 0 {
		return res, fmt.Errorf("torture: MigrateSweep needs a migratory config (Migrations or AutoSplit)")
	}
	base, ref, err := serviceReference(cfg.Server, "migration")
	if err != nil {
		return res, err
	}
	spans := ref.MigrationSpans()
	if len(spans) == 0 {
		return res, fmt.Errorf("torture: reference run recorded no migration spans")
	}
	grid := serviceGrid{base: base, policies: cfg.Policies, stride: cfg.Stride, perCombo: 32, parallel: cfg.Parallel}
	phases := cfg.Phases
	if phases == nil {
		phases = []string{"transfer", "catchup", "flip", "cleanup"}
	}
	for _, ms := range spans {
		if !slices.Contains(phases, ms.Phase) || (cfg.CrashShards != nil && !slices.Contains(cfg.CrashShards, ms.Shard)) {
			continue
		}
		if ms.Hi <= ms.Lo+1 {
			continue // a phase with no primitives on this shard has no crash points
		}
		grid.sweep(&res, ms.Shard, ms.Lo, ms.Hi, func(policy string) string {
			return fmt.Sprintf("shard%d/%s/%s", ms.Shard, ms.Phase, policy)
		})
	}
	return res, nil
}
