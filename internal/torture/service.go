package torture

import (
	"fmt"

	"libcrpm/internal/nvm"
	"libcrpm/internal/replica"
	"libcrpm/internal/server"
)

// ServiceConfig parameterizes the sharded-service crash sweep: a
// reference run of the full service measures each shard's serving-phase
// primitive span, then the identical run is replayed once per (crashed
// shard, policy, crash point), recovered with the coordinated protocol,
// and verified — every op acked before the landing epoch's cut must be
// present on every shard, and all shards must land on one global epoch.
type ServiceConfig struct {
	// Server is the service under torture. Crash must be nil (the sweep
	// owns injection).
	Server server.Config
	// CrashShards lists the shards to inject into (nil = every shard).
	CrashShards []int
	// Stride tests every Stride-th crash point of a span (default: sized
	// so each (shard, policy) combo replays about 64 points).
	Stride int
	// Policies select the crash-image schedules (nil = the standard
	// three, seeded from Server.Seed).
	Policies []Policy
	// Parallel bounds concurrent replays (0 = GOMAXPROCS). Each replay
	// owns its own service world, so the violation report is
	// byte-identical at any setting.
	Parallel int
	// KillPrimary sweeps crash-failover instead of restart-recovery:
	// Server.Replicas must be positive, and every replay additionally
	// demands that the crashed shard failed over to a promoted secondary.
	KillPrimary bool
	// SLAs adds an SLA dimension to the kill-primary matrix: each spec
	// (replica.ParseSet syntax) re-runs the whole (shard, policy, point)
	// grid with the clients assigned that SLA set, under its own
	// reference run — routing changes which clock serves each read, so
	// crash points shift per spec. Points keys gain a trailing "/<spec>"
	// segment; empty leaves the single-run key format unchanged.
	SLAs []string
}

// ServiceViolation is one consistency failure of the service sweep.
type ServiceViolation struct {
	// CrashShard and Policy identify the injection; Index is the device
	// primitive the crash fired on (replayable via server.CrashSpec).
	// SLA is the sweep's SLA spec, empty outside kill-primary SLA sweeps.
	CrashShard int
	Policy     string
	SLA        string
	Index      int64
	// Shard, Stage, Detail locate the failure (Shard -1 for run-level
	// failures).
	Shard  int
	Stage  string
	Detail string
}

func (v ServiceViolation) String() string {
	combo := fmt.Sprintf("shard %d/%s", v.CrashShard, v.Policy)
	if v.SLA != "" {
		combo += "/" + v.SLA
	}
	return fmt.Sprintf("[%s] crash at primitive %d: shard %d: %s: %s",
		combo, v.Index, v.Shard, v.Stage, v.Detail)
}

// ServiceResult summarizes a service sweep.
type ServiceResult struct {
	// Points counts crash points tested per "shard<i>/<policy>" combo.
	Points map[string]int
	// Replays counts every crash-replay-recover service run.
	Replays int
	// Violations is empty iff the sweep passed.
	Violations []ServiceViolation
}

// OK reports whether the sweep found no violations.
func (r ServiceResult) OK() bool { return len(r.Violations) == 0 }

// serviceReference is the prologue of the two service-level sweeps: the
// service under torture runs once without a crash and must itself be
// violation-free. The run's primitive windows define a sweep's crash
// points, the returned config its replays. The service comes back closed:
// its windows are numbers the run recorded.
func serviceReference(base server.Config, what string) (server.Config, *server.Service, error) {
	if base.Crash != nil {
		return base, nil, fmt.Errorf("torture: %s sweep: Server.Crash must be nil (the sweep owns injection)", what)
	}
	ref, err := server.New(base)
	if err != nil {
		return base, nil, fmt.Errorf("torture: %s reference: %w", what, err)
	}
	defer ref.Close()
	refRes, err := ref.Run()
	if err != nil {
		return base, nil, fmt.Errorf("torture: %s reference run: %w", what, err)
	}
	if !refRes.OK() {
		return base, nil, fmt.Errorf("torture: %s reference run inconsistent: %v", what, refRes.Violations[0])
	}
	return base, ref, nil
}

// serviceGrid is what every crash window of a service-level sweep shares.
type serviceGrid struct {
	base     server.Config // the reference's, replayed once per crash point
	policies []Policy      // nil: the standard three, seeded from base.Seed
	stride   int           // 0: sized so a window replays about perCombo points
	perCombo int
	parallel int
	// sla and killPrimary are ServiceSweep's two extra demands on a replay.
	sla         string
	killPrimary bool
}

// sweep crashes shard at every strided primitive inside (lo, hi) under each
// policy in turn, booking each combo into res under its key.
func (g serviceGrid) sweep(res *ServiceResult, shard int, lo, hi int64, key func(policy string) string) {
	stride, policies := g.stride, g.policies
	if stride <= 0 {
		stride = max(int((hi-lo)/int64(g.perCombo)), 1)
	}
	if policies == nil {
		policies = StandardPolicies(g.base.Seed)
	}
	for _, pol := range policies {
		// Each replay owns its whole service world.
		n, vs := sweepSpan(lo+1, hi, stride, g.parallel, func(k int64) []ServiceViolation {
			return serviceReplay(g.base, shard, pol, g.sla, k, g.killPrimary)
		})
		res.Replays += n
		res.Points[key(pol.Name)] += n
		res.Violations = append(res.Violations, vs...)
	}
}

// ServiceSweep runs the matrix. The reference run must itself be
// violation-free; its per-shard serving spans define the crash points.
func ServiceSweep(cfg ServiceConfig) (ServiceResult, error) {
	res := ServiceResult{Points: make(map[string]int)}
	if cfg.KillPrimary && cfg.Server.Replicas < 1 {
		return res, fmt.Errorf("torture: kill-primary sweep needs Server.Replicas > 0")
	}
	if len(cfg.SLAs) > 0 && !cfg.KillPrimary {
		return res, fmt.Errorf("torture: the SLA dimension requires KillPrimary")
	}
	specs := []string{""}
	if len(cfg.SLAs) > 0 {
		specs = cfg.SLAs
	}
	for _, spec := range specs {
		if err := serviceSweepSpec(cfg, spec, &res); err != nil {
			return res, err
		}
	}
	return res, nil
}

// serviceSweepSpec runs one SLA spec's (shard, policy, point) grid off its
// own reference run, folding points and violations into res.
func serviceSweepSpec(cfg ServiceConfig, spec string, res *ServiceResult) error {
	base, suffix := cfg.Server, ""
	if spec != "" {
		set, err := replica.ParseSet(spec)
		if err != nil {
			return fmt.Errorf("torture: sweep SLA %q: %w", spec, err)
		}
		base.SLAs, suffix = set, "/"+spec
	}
	base, ref, err := serviceReference(base, "service")
	if err != nil {
		return err
	}
	spans := ref.PrimitiveSpans()
	grid := serviceGrid{base: base, policies: cfg.Policies, stride: cfg.Stride, perCombo: 64, parallel: cfg.Parallel,
		sla: spec, killPrimary: cfg.KillPrimary}
	shards := cfg.CrashShards
	if shards == nil {
		for i := 0; i < base.Shards; i++ {
			shards = append(shards, i)
		}
	}
	for _, sh := range shards {
		if sh < 0 || sh >= base.Shards {
			return fmt.Errorf("torture: crash shard %d out of range", sh)
		}
		grid.sweep(res, sh, spans[sh][0], spans[sh][1], func(policy string) string {
			return fmt.Sprintf("shard%d/%s%s", sh, policy, suffix)
		})
	}
	return nil
}

// serviceReplay runs one crash-replay-recover cycle with panic
// containment: a protocol panic becomes a violation row for this crash
// point instead of killing the sweep.
func serviceReplay(base server.Config, crashShard int, pol Policy, sla string, at int64, killPrimary bool) (out []ServiceViolation) {
	defer func() {
		if r := recover(); r != nil {
			out = append(out, ServiceViolation{
				CrashShard: crashShard, Policy: pol.Name, SLA: sla, Index: at,
				Shard: -1, Stage: "panic", Detail: fmt.Sprint(r),
			})
		}
	}()
	cfg := base
	cfg.Crash = &server.CrashSpec{
		Shard: crashShard,
		At:    at,
		// Every shard's crash image comes from the policy, phase-shifted
		// per shard so neighbouring shards get different line fates.
		Policy: func(shard int) nvm.CrashPolicy {
			return pol.New(at ^ int64(shard+1)*0x9e3779b97f4a7c)
		},
	}
	svc, err := server.New(cfg)
	if err != nil {
		return []ServiceViolation{{CrashShard: crashShard, Policy: pol.Name, SLA: sla, Index: at, Shard: -1, Stage: "config", Detail: err.Error()}}
	}
	defer svc.Close()
	res, err := svc.Run()
	if err != nil {
		return []ServiceViolation{{CrashShard: crashShard, Policy: pol.Name, SLA: sla, Index: at, Shard: -1, Stage: "run", Detail: err.Error()}}
	}
	if !res.Recovered && res.OK() {
		out = append(out, ServiceViolation{
			CrashShard: crashShard, Policy: pol.Name, SLA: sla, Index: at,
			Shard: -1, Stage: "recover", Detail: "run reported no recovery and no violations",
		})
	}
	if killPrimary && !res.FailedOver && res.OK() {
		out = append(out, ServiceViolation{
			CrashShard: crashShard, Policy: pol.Name, SLA: sla, Index: at,
			Shard: crashShard, Stage: "failover", Detail: "kill-primary replay recovered without promoting a secondary",
		})
	}
	for _, v := range res.Violations {
		out = append(out, ServiceViolation{
			CrashShard: crashShard, Policy: pol.Name, SLA: sla, Index: at,
			Shard: v.Shard, Stage: v.Stage, Detail: v.Detail,
		})
	}
	return out
}
