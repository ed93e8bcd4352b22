// Command crpmserve runs the sharded recoverable KV service against a
// YCSB workload on simulated NVM devices: N shards (one container, one
// device, one request-loop rank each), M deterministic client streams, and
// policy-driven coordinated consistent cuts, with full shadow verification
// of every acked operation at the end of the run.
//
// Usage:
//
//	crpmserve -shards 4 -clients 8 -mix a -ops 1000000
//	crpmserve -mix e -ds rbmap -policy interval:8ms -trace serve.trace.json
//	crpmserve -shards 4 -clients 8 -mix a -ops 200000 -json serve.json
//	crpmserve -replicas 2 -sla mix -mix b -ops 200000
//	crpmserve -replicas 2 -sla bounded:2@1ms -killprimary 1
//	crpmserve -target 4e6 -duration 50ms -warmup 20000 -dist uniform
//	crpmserve -target 8e6 -ops 400000 -status
//	crpmserve -shards 2 -migrate split:0@2,merge:2>1@5
//	crpmserve -shards 2 -autosplit 4
//
// -migrate schedules live shard migrations (checkpoint-seeded snapshot
// ship, delta catch-up, atomic ring flip at a coordinated cut);
// -autosplit lets the service split its hottest shard on its own, up to
// the given live-shard cap. What cannot be combined with what is one table,
// server's exclusions; the service rejects a bad pair before the first op.
//
// -target turns the run open-loop: requests arrive on a fixed-rate schedule
// of simulated timestamps and latency is charged from each op's intended
// arrival, so queueing behind a checkpoint pause is billed to every waiting
// op (coordinated-omission-free). With -duration the run is time-bounded
// (the op count follows from the offered load); otherwise -ops bounds it.
//
// -cpuprofile / -memprofile write pprof profiles of the run (host side; they
// never affect stdout).
//
// All output on stdout (and in -json / -trace files) is a pure function of
// the flags: timestamps are simulated picoseconds and streams are label-hash
// seeded, so runs are byte-identical at any -parallel level. Wall-clock is
// reported on stderr only. Exit code is non-zero if verification finds any
// consistency violation.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"libcrpm/internal/core"
	"libcrpm/internal/harness"
	"libcrpm/internal/measure"
	"libcrpm/internal/obs"
	"libcrpm/internal/prof"
	"libcrpm/internal/replica"
	"libcrpm/internal/server"
	"libcrpm/internal/workload"
)

// ErrBadFlags wraps every flag rejection — the CLI's own and, through
// newService, every configuration the service refuses — so scripts (and the
// tests) can distinguish a usage error from a run failure.
var ErrBadFlags = errors.New("crpmserve: invalid flags")

// newService is server.New with its rejections reported as usage errors.
func newService(cfg server.Config) (*server.Service, error) {
	svc, err := server.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadFlags, err)
	}
	return svc, nil
}

// validateReplFlags checks the replication flag set and resolves -sla.
// Replication is strictly opt-in: -sla and -killprimary are meaningless
// without secondaries to route to or promote, so they require -replicas.
func validateReplFlags(replicas int, slaSpec string, killPrimary, shards int) ([]replica.SLA, error) {
	if replicas < 0 {
		return nil, fmt.Errorf("%w: -replicas %d is negative", ErrBadFlags, replicas)
	}
	if slaSpec != "" && replicas == 0 {
		return nil, fmt.Errorf("%w: -sla %q requires -replicas > 0", ErrBadFlags, slaSpec)
	}
	if killPrimary >= 0 && replicas == 0 {
		return nil, fmt.Errorf("%w: -killprimary requires -replicas > 0 (no secondary to promote)", ErrBadFlags)
	}
	if killPrimary >= shards {
		return nil, fmt.Errorf("%w: -killprimary %d out of range (shards: %d)", ErrBadFlags, killPrimary, shards)
	}
	if slaSpec == "" {
		return nil, nil
	}
	set, err := replica.ParseSet(slaSpec)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFlags, err)
	}
	return set, nil
}

// validateMeasureFlags checks the open-loop flag set. The rig is strictly
// opt-in via -target: -duration and -warmup shape the arrival schedule, so
// they are meaningless without one.
func validateMeasureFlags(target float64, duration time.Duration, warmup int) (*measure.Config, error) {
	if target < 0 {
		return nil, fmt.Errorf("%w: -target %v is negative", ErrBadFlags, target)
	}
	if target == 0 {
		if duration > 0 {
			return nil, fmt.Errorf("%w: -duration requires -target > 0 (no arrival schedule to bound)", ErrBadFlags)
		}
		if warmup > 0 {
			return nil, fmt.Errorf("%w: -warmup requires -target > 0 (no measured window to open)", ErrBadFlags)
		}
		return nil, nil
	}
	if duration < 0 {
		return nil, fmt.Errorf("%w: -duration %v is negative", ErrBadFlags, duration)
	}
	if warmup < 0 {
		return nil, fmt.Errorf("%w: -warmup %d is negative", ErrBadFlags, warmup)
	}
	return &measure.Config{
		TargetOps:  target,
		WarmupOps:  warmup,
		DurationPS: duration.Nanoseconds() * 1000,
	}, nil
}

// parseMigrations parses the -migrate spec: comma-separated
// KIND:SRC[>DST][@CUTS] entries, e.g. "split:0@2,move:1>2@4,merge:3>1@6".
// split picks its own destination (the next fresh rank); move and merge
// require one. @CUTS delays the start until that many committed cuts.
func parseMigrations(spec string) ([]server.MigrateSpec, error) {
	var out []server.MigrateSpec
	for _, ent := range strings.Split(spec, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		kindStr, rest, ok := strings.Cut(ent, ":")
		if !ok || rest == "" {
			return nil, fmt.Errorf("%w: -migrate entry %q: want KIND:SRC[>DST][@CUTS]", ErrBadFlags, ent)
		}
		after := 0
		addr := rest
		if a, cuts, ok := strings.Cut(rest, "@"); ok {
			n, err := strconv.Atoi(cuts)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("%w: -migrate entry %q: cut count %q (want a positive integer)", ErrBadFlags, ent, cuts)
			}
			addr, after = a, n
		}
		srcStr, dstStr, hasDst := strings.Cut(addr, ">")
		src, err := strconv.Atoi(srcStr)
		if err != nil || src < 0 {
			return nil, fmt.Errorf("%w: -migrate entry %q: source shard %q", ErrBadFlags, ent, srcStr)
		}
		dst := 0
		if hasDst {
			if dst, err = strconv.Atoi(dstStr); err != nil || dst < 0 {
				return nil, fmt.Errorf("%w: -migrate entry %q: destination shard %q", ErrBadFlags, ent, dstStr)
			}
		}
		var kind server.MigrateKind
		switch kindStr {
		case "split":
			if hasDst {
				return nil, fmt.Errorf("%w: -migrate entry %q: split spawns its own destination (no >DST)", ErrBadFlags, ent)
			}
			kind = server.MigrateSplit
		case "move":
			kind = server.MigrateMove
		case "merge":
			kind = server.MigrateMerge
		default:
			return nil, fmt.Errorf("%w: -migrate entry %q: unknown kind %q (split|move|merge)", ErrBadFlags, ent, kindStr)
		}
		if (kind == server.MigrateMove || kind == server.MigrateMerge) && !hasDst {
			return nil, fmt.Errorf("%w: -migrate entry %q: %s needs a destination (SRC>DST)", ErrBadFlags, ent, kindStr)
		}
		out = append(out, server.MigrateSpec{Kind: kind, Src: src, Dst: dst, AfterCuts: after})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: -migrate %q has no entries", ErrBadFlags, spec)
	}
	return out, nil
}

// validateMigrateFlags resolves the elastic-resharding flags: -migrate's
// schedule and -autosplit's cap. Whether the two go together, or with the
// rest of the run, is the service's to say (newService).
func validateMigrateFlags(migrateSpec string, autosplit int) (specs []server.MigrateSpec, as server.AutoSplitSpec, err error) {
	if autosplit < 0 {
		return nil, as, fmt.Errorf("%w: -autosplit %d is negative", ErrBadFlags, autosplit)
	}
	as.MaxShards = autosplit
	if migrateSpec != "" {
		specs, err = parseMigrations(migrateSpec)
	}
	return specs, as, err
}

func main() { os.Exit(run()) }

func run() int {
	shards := flag.Int("shards", 4, "shard count (one container+device+rank per shard)")
	clients := flag.Int("clients", 8, "client stream count")
	mixName := flag.String("mix", "a", "YCSB mix: a-f or crud")
	ops := flag.Int("ops", 200_000, "total operations across all clients")
	keys := flag.Uint64("keys", 100_000, "initially populated key-space size")
	backend := flag.String("backend", "default", "checkpoint backend: default | buffered (libcrpm container modes) | incll (in-cache-line logging)")
	ds := flag.String("ds", "hashmap", "per-shard structure: hashmap | rbmap")
	policySpec := flag.String("policy", "ops:16384", "cut policy: ops:N | interval:DUR | dirty:BYTES | pause:DUR (pause budget; enables the incremental pipeline)")
	heap := flag.Int("heap", 8<<20, "per-shard container heap bytes")
	buckets := flag.Int("buckets", 1<<15, "hash-map buckets per shard")
	batch := flag.Int("batch", 2048, "global ops per policy decision batch")
	budget := flag.Int("budget", 0, "incremental checkpoint quantum in bytes per step; 0 = stop-the-world cuts (pause policies default it)")
	seed := flag.Int64("seed", 1, "label-hash seed for all client streams")
	parallel := flag.Int("parallel", 0, "verification cells in flight (0 = GOMAXPROCS); never changes output bytes")
	jsonPath := flag.String("json", "", "write per-shard and aggregate metrics (harness table schema) to this file")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON (Perfetto-loadable) of per-shard spans to this file")
	target := flag.Float64("target", 0, "open-loop offered load in ops per simulated second (0 = closed-loop); latency is then also charged from each op's intended arrival")
	duration := flag.Duration("duration", 0, "time-bound the measured window in simulated time (requires -target; overrides -ops)")
	warmup := flag.Int("warmup", 0, "leading ops excluded from the measured histograms (requires -target)")
	distName := flag.String("dist", "", "override the mix's key distribution: zipfian | uniform | latest | hotspot | exponential")
	status := flag.Bool("status", false, "live progress line on stderr (never affects stdout bytes)")
	replicas := flag.Int("replicas", 0, "secondaries per shard, installing committed cut deltas asynchronously (0 = replication off)")
	slaSpec := flag.String("sla", "", "read SLA set assigned round-robin to clients: mix | strong | rmw | monotonic | bounded:K | eventual, each with an optional @DUR latency target (requires -replicas)")
	killPrimary := flag.Int("killprimary", -1, "crash this shard's primary mid-serve and fail over to its most-current secondary (requires -replicas)")
	migrateSpec := flag.String("migrate", "", "live shard migrations: comma-separated KIND:SRC[>DST][@CUTS] entries, e.g. 'split:0@2,move:1>2@4,merge:3>1@6'")
	autosplit := flag.Int("autosplit", 0, "grow the service by splitting the hottest shard up to this many live shards (0 = off)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the run finishes) to this file")
	flag.Parse()

	mix, err := workload.YCSBByName(*mixName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *distName != "" {
		d, err := workload.ParseDist(*distName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		mix.Dist = d
	}
	policy, err := server.ParsePolicy(*policySpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var mode core.Mode
	var store string
	switch strings.ToLower(*backend) {
	case "default":
		mode = core.ModeDefault
	case "buffered":
		mode = core.ModeBuffered
	case "incll":
		store = server.BackendInCLL
	default:
		fmt.Fprintf(os.Stderr, "unknown backend %q (default|buffered|incll)\n", *backend)
		return 2
	}
	var kind server.DSKind
	switch strings.ToLower(*ds) {
	case "hashmap", "unordered_map":
		kind = server.DSHashMap
	case "rbmap", "map":
		kind = server.DSRBMap
	default:
		fmt.Fprintf(os.Stderr, "unknown structure %q (hashmap|rbmap)\n", *ds)
		return 2
	}
	slas, err := validateReplFlags(*replicas, *slaSpec, *killPrimary, *shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	mcfg, err := validateMeasureFlags(*target, *duration, *warmup)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	migrations, autoSplit, err := validateMigrateFlags(*migrateSpec, *autosplit)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	opCount := *ops
	if mcfg != nil && mcfg.DurationPS > 0 {
		opCount = 0 // time-bounded: the op count follows from the offered load
	}

	cfg := server.Config{
		Shards:     *shards,
		Clients:    *clients,
		Mix:        mix,
		Ops:        opCount,
		Keys:       *keys,
		DS:         kind,
		Backend:    store,
		Mode:       mode,
		HeapSize:   *heap,
		Buckets:    *buckets,
		BatchOps:   *batch,
		StepBudget: *budget,
		Policy:     policy,
		Seed:       *seed,
		Parallel:   *parallel,
		Trace:      *tracePath != "" || *jsonPath != "",
		Replicas:   *replicas,
		SLAs:       slas,
		Measure:    mcfg,
		Migrations: migrations,
		AutoSplit:  autoSplit,
	}
	if *status {
		cfg.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r  %d/%d ops issued", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	svc, err := newService(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer stopProf()
	wallStart := time.Now()
	if *killPrimary >= 0 {
		// The kill point is the middle of the victim's serving span, so a
		// reference run measures the span first. Both runs are pure
		// functions of the flags; the failover line is too.
		if _, err := svc.Run(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		span := svc.PrimitiveSpans()[*killPrimary]
		cfg.Crash = &server.CrashSpec{Shard: *killPrimary, At: span[0] + (span[1]-span[0])/2}
		cfg.Liveness = true
		if svc, err = newService(cfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	res, err := svc.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	wall := time.Since(wallStart)

	t := buildTable(cfg, *backend, *ds, res)
	fmt.Println(t)
	tables := []harness.Table{t}
	if res.Measure != nil {
		mt := buildMeasureTable(res.Measure)
		fmt.Println(mt)
		tables = append(tables, mt)
	}
	if res.FailedOver {
		fmt.Printf("failover: shard %d promoted secondary %d at cut epoch %d (crash at primitive %d)\n",
			res.CrashedShard, res.PromotedReplica, res.PromotedEpoch, cfg.Crash.At)
	}
	for _, m := range res.Migrations {
		fmt.Printf("migration: %s %d>%d flipped at cut epoch %d: %d keys shipped (+%d catch-up ops) across %d ring slots\n",
			m.Kind, m.Src, m.Dst, m.FlipEpoch, m.MovedKeys, m.CatchupOps, m.SlotCount)
	}
	fmt.Fprintf(os.Stderr, "served %d ops on %d shards in %v wall\n", res.TotalOps, cfg.Shards, wall.Round(time.Millisecond))

	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, tables); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
	}
	if *tracePath != "" {
		tracks, err := obs.WriteTraceFile(*tracePath, res.Trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d tracks; open at ui.perfetto.dev)\n", *tracePath, tracks)
	}

	if !res.OK() {
		fmt.Fprintf(os.Stderr, "FAIL: %d consistency violations:\n", len(res.Violations))
		for _, v := range res.Violations {
			fmt.Fprintf(os.Stderr, "  %v\n", v)
		}
		return 1
	}
	fmt.Fprintln(os.Stderr, "verification passed: every acked op present, zero violations")
	return 0
}

// buildTable renders the run as a harness table: printable rows plus the
// machine-readable metrics that join the BENCH_*.json trajectory. Every
// value is simulated-clock derived, so the table (and the JSON built from
// it) is byte-identical across runs and -parallel settings.
func buildTable(cfg server.Config, backend, ds string, res *server.Result) harness.Table {
	title := fmt.Sprintf("crpmserve: %d shards x %d clients, YCSB-%s, %s/%s, %s, %d ops",
		cfg.Shards, cfg.Clients, cfg.Mix.Name, backend, ds, cfg.Policy.Name(), cfg.Ops)
	if cfg.Replicas > 0 {
		title += fmt.Sprintf(", %d replicas/shard", cfg.Replicas)
	}
	t := harness.Table{
		Title:  title,
		Header: []string{"shard", "ops", "cuts", "epoch", "sim-ms", "Mops/s", "p50-lat-us", "p99-lat-us", "p999-lat-us", "p99-pause-us", "p999-pause-us", "max-pause-us"},
	}
	// The replica columns (and metrics) exist only for replicated runs, so
	// an unreplicated invocation's output is byte-identical to the
	// replication-unaware tool's.
	if cfg.Replicas > 0 {
		t.Header = append(t.Header, "sec-reads", "unmet", "stale-mean", "p99-read-us")
	}
	ps2ms := func(ps int64) string { return fmt.Sprintf("%.3f", float64(ps)/1e9) }
	ps2us := func(ps int64) string { return fmt.Sprintf("%.3f", float64(ps)/1e6) }
	for _, st := range res.Shards {
		var tput float64
		if st.SimPS > 0 {
			tput = float64(st.Ops) * 1e12 / float64(st.SimPS) / 1e6
		}
		row := []string{
			fmt.Sprintf("%d", st.Shard),
			fmt.Sprintf("%d", st.Ops),
			fmt.Sprintf("%d", st.Cuts),
			fmt.Sprintf("%d", st.Epoch),
			ps2ms(st.SimPS),
			fmt.Sprintf("%.3f", tput),
			ps2us(st.P50LatPS),
			ps2us(st.P99LatPS),
			ps2us(st.P999LatPS),
			ps2us(st.P99PausePS),
			ps2us(st.P999PausePS),
			ps2us(st.PauseMaxPS),
		}
		pfx := fmt.Sprintf("serve_shard%d_", st.Shard)
		t.AddMetric(pfx+"ops", float64(st.Ops))
		t.AddMetric(pfx+"cuts", float64(st.Cuts))
		t.AddMetric(pfx+"sim_ms", float64(st.SimPS)/1e9)
		t.AddMetric(pfx+"p99_lat_us", float64(st.P99LatPS)/1e6)
		t.AddMetric(pfx+"p999_lat_us", float64(st.P999LatPS)/1e6)
		t.AddMetric(pfx+"p99_pause_us", float64(st.P99PausePS)/1e6)
		t.AddMetric(pfx+"p999_pause_us", float64(st.P999PausePS)/1e6)
		if cfg.Replicas > 0 {
			row = append(row,
				fmt.Sprintf("%d", st.SecReads),
				fmt.Sprintf("%d", st.UnmetReads),
				fmt.Sprintf("%.2f", st.StaleMeanEpochs),
				ps2us(st.P99ReadLatPS),
			)
			t.AddMetric(pfx+"sec_reads", float64(st.SecReads))
			t.AddMetric(pfx+"unmet_reads", float64(st.UnmetReads))
			t.AddMetric(pfx+"stale_mean_epochs", st.StaleMeanEpochs)
			t.AddMetric(pfx+"p99_read_lat_us", float64(st.P99ReadLatPS)/1e6)
		}
		t.Rows = append(t.Rows, row)
	}
	all := []string{
		"all",
		fmt.Sprintf("%d", res.TotalOps),
		fmt.Sprintf("%d", res.Cuts),
		"",
		ps2ms(res.SimPS),
		fmt.Sprintf("%.3f", res.ThroughputOps/1e6),
		"", ps2us(res.P99LatPS), ps2us(res.P999LatPS), "", "", ps2us(res.MaxPausePS),
	}
	if cfg.Replicas > 0 {
		all = append(all,
			fmt.Sprintf("%d", res.SecReads),
			fmt.Sprintf("%d", res.UnmetReads),
			fmt.Sprintf("%.2f", res.StaleMeanEpochs),
			"",
		)
		t.AddMetric("serve_sec_reads", float64(res.SecReads))
		t.AddMetric("serve_unmet_reads", float64(res.UnmetReads))
		t.AddMetric("serve_stale_mean_epochs", res.StaleMeanEpochs)
		if res.FailedOver {
			t.AddMetric("serve_promoted_replica", float64(res.PromotedReplica))
			t.AddMetric("serve_promoted_epoch", float64(res.PromotedEpoch))
		}
	}
	t.Rows = append(t.Rows, all)
	t.AddMetric("serve_total_ops", float64(res.TotalOps))
	t.AddMetric("serve_cuts", float64(res.Cuts))
	t.AddMetric("serve_sim_ms", float64(res.SimPS)/1e9)
	t.AddMetric("serve_tput_mops", res.ThroughputOps/1e6)
	t.AddMetric("serve_p99_lat_us", float64(res.P99LatPS)/1e6)
	t.AddMetric("serve_p999_lat_us", float64(res.P999LatPS)/1e6)
	t.AddMetric("serve_max_pause_us", float64(res.MaxPausePS)/1e6)
	t.AddMetric("serve_violations", float64(len(res.Violations)))
	// Migration metrics exist only for migratory runs, keeping
	// migration-free output byte-identical to the pre-ring tool's.
	if len(res.Migrations) > 0 {
		t.AddMetric("serve_migrations", float64(len(res.Migrations)))
		var moved, catchup float64
		for _, m := range res.Migrations {
			moved += float64(m.MovedKeys)
			catchup += float64(m.CatchupOps)
		}
		t.AddMetric("serve_migrated_keys", moved)
		t.AddMetric("serve_migration_catchup_ops", catchup)
	}
	return t
}

// buildMeasureTable renders the open-loop measurement report: the
// omission-free (open) and service-time latency tracks side by side, per
// op kind, plus the achieved-throughput and timeseries summary the SLO
// curves are built from. Every value is simulated-clock derived.
func buildMeasureTable(m *measure.Report) harness.Table {
	t := harness.Table{
		Title: fmt.Sprintf("open-loop measurement: target %.0f ops/s, achieved %.0f ops/s, %d measured ops (%d warmup excluded)",
			m.TargetOps, m.AchievedOps, m.MeasuredOps, m.WarmupOps),
		Header: []string{"track", "kind", "n", "p50-us", "p95-us", "p99-us", "p999-us", "max-us", "mean-us"},
		Notes: []string{
			"open: latency from each op's intended arrival (queueing behind cut pauses is charged); service: from dispatch",
		},
	}
	ps2us := func(ps int64) string { return fmt.Sprintf("%.3f", float64(ps)/1e6) }
	add := func(track string, ks ...measure.KindStat) {
		for _, k := range ks {
			t.Rows = append(t.Rows, []string{
				track, k.Kind,
				fmt.Sprintf("%d", k.N),
				ps2us(k.P50PS), ps2us(k.P95PS), ps2us(k.P99PS), ps2us(k.P999PS),
				ps2us(k.MaxPS), ps2us(k.MeanPS),
			})
		}
	}
	add("open", m.OpenAll)
	add("open", m.Open...)
	add("service", m.ServiceAll)
	add("service", m.Service...)
	if n := len(m.Intervals); n > 0 {
		worst := m.Intervals[0]
		for _, iv := range m.Intervals[1:] {
			if iv.OpenP99PS > worst.OpenP99PS {
				worst = iv
			}
		}
		t.Notes = append(t.Notes, fmt.Sprintf(
			"timeseries: %d intervals of %.3f ms; worst interval #%d (open p99 %s us, %d ops)",
			n, float64(m.IntervalPS)/1e9, worst.Index, ps2us(worst.OpenP99PS), worst.Ops))
		t.AddMetric("serve_worst_interval_open_p99_us", float64(worst.OpenP99PS)/1e6)
	}
	t.AddMetric("serve_target_ops", m.TargetOps)
	t.AddMetric("serve_achieved_ops", m.AchievedOps)
	t.AddMetric("serve_measured_ops", float64(m.MeasuredOps))
	t.AddMetric("serve_open_p99_us", float64(m.OpenAll.P99PS)/1e6)
	t.AddMetric("serve_open_p999_us", float64(m.OpenAll.P999PS)/1e6)
	t.AddMetric("serve_svc_open_gap_p99_us", float64(m.OpenAll.P99PS-m.ServiceAll.P99PS)/1e6)
	t.AddMetric("serve_service_p99_us", float64(m.ServiceAll.P99PS)/1e6)
	return t
}

// writeJSON emits the crpmbench trajectory schema (experiments → tables →
// metrics) with no wall-clock fields, so the file is byte-identical across
// runs and joins BENCH_*.json diffs directly.
func writeJSON(path string, tables []harness.Table) error {
	out := struct {
		Experiments []harness.Experiment `json:"experiments"`
	}{[]harness.Experiment{{Name: "serve", Tables: tables}}}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
