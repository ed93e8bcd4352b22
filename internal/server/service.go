// Package server is the sharded recoverable KV service built on the
// simulated NVM substrate: every shard owns a checkpoint backend (and the
// pds structure inside it) on its own device, served by one request-loop
// goroutine that is also an mpi rank; a consistent-hash ring
// (internal/ring) partitions the key space; the Service replays
// deterministic YCSB client streams against the shards and takes
// cross-shard consistent cuts with the coordinated checkpoint protocol of
// §3.6, so recovery after a crash lands every shard on the same globally
// committed epoch.
//
// Determinism contract: the service's observable output — acked-op
// counts, cut count, simulated times, latency and pause quantiles,
// violations — is a pure function of its Config. Client streams are
// pre-generated from sched.SeedFor label hashes, policy decisions are
// computed from allreduce-aggregated statistics at fixed global batch
// boundaries, and barriers align the simulated clocks, so no result
// depends on goroutine scheduling or on any worker-pool width.
//
// Scans are routed to the shard owning the start key and read only that
// shard's partition — a documented limitation; cross-shard merge scans
// would need a scatter phase the service does not implement.
package server

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"libcrpm/internal/core"
	"libcrpm/internal/incll"
	"libcrpm/internal/measure"
	"libcrpm/internal/mpi"
	"libcrpm/internal/nvm"
	"libcrpm/internal/obs"
	"libcrpm/internal/region"
	"libcrpm/internal/replica"
	"libcrpm/internal/ring"
	"libcrpm/internal/sched"
	"libcrpm/internal/workload"
)

// foreverPS is idle time with no arrival at its end.
const foreverPS = core.Forever

// ErrNoOps mirrors workload.ErrNoOps for the service: a run with no
// requests has no epochs and no meaningful result.
var ErrNoOps = errors.New("server: service run needs at least one operation")

// Checkpoint backends a shard can serve from.
const (
	// BackendCore is the differential libcrpm container (the default;
	// Config.Mode selects Default or Buffered).
	BackendCore = "core"
	// BackendInCLL is the in-cache-line-logging backend: inline undo slots
	// with O(1) epoch-tag checkpoints instead of block-granular CoW.
	BackendInCLL = "incll"
)

// ErrInCLLReplicas rejects Replicas > 0 with the incll backend: delta
// shipping reads the container's dirty blocks of the epoch (EpochRuns), which
// in-cache-line logging does not maintain (it has no block-granular dirty
// tracking).
var ErrInCLLReplicas = errors.New("server: the incll backend does not support replication (no dirty-block capture)")

// ErrInCLLIncremental rejects the incremental cut pipeline with the incll
// backend: its checkpoint is already O(1) (an epoch-tag bump), so there is
// nothing to drain through bounded quanta.
var ErrInCLLIncremental = errors.New("server: the incll backend does not support the incremental cut pipeline (checkpoints are already O(1))")

// exclusions is the feature-compatibility table, the one place the rules
// live: each row is a pair of Config features no run combines and the error
// New rejects the pair with (the reason is the error's own text and comment).
// withDefaults walks it; the Config field comments and README point here, and
// crpmserve reports New's error instead of deciding again.
var exclusions = []struct {
	a, b func(*Config) bool
	err  error
}{
	{(*Config).inCLL, (*Config).incremental, ErrInCLLIncremental},
	{(*Config).inCLL, (*Config).replicated, ErrInCLLReplicas},
	{(*Config).elastic, (*Config).replicated, ErrMigrateReplicas},
	{(*Config).scheduled, (*Config).autoSplit, errors.New("server: explicit migrations and autosplit are mutually exclusive")},
}

func (c *Config) replicated() bool { return c.Replicas > 0 }
func (c *Config) inCLL() bool      { return c.Backend == BackendInCLL }
func (c *Config) scheduled() bool  { return len(c.Migrations) > 0 }
func (c *Config) autoSplit() bool  { return c.AutoSplit.MaxShards > 0 }
func (c *Config) elastic() bool    { return c.scheduled() || c.autoSplit() }
func (c *Config) incremental() bool {
	_, pause := c.Policy.(PausePolicy)
	return pause || c.StepBudget > 0
}

// CrashSpec injects a power failure into a run for torture testing.
type CrashSpec struct {
	// Shard is the rank whose device crashes.
	Shard int
	// At is the 1-based primitive index (counted from device creation, as
	// in nvm.InjectedCrash.Index) the crash fires on.
	At int64
	// Policy resolves each shard's unguaranteed lines at the power
	// failure (the failure is global: every device crashes). nil uses a
	// per-shard seeded policy derived from Seed and At.
	Policy func(shard int) nvm.CrashPolicy
}

// Config parameterizes a service run.
type Config struct {
	// Shards and Clients size the service. Each shard is one rank with
	// its own device; each client is one deterministic request stream.
	Shards, Clients int
	// Mix is the YCSB workload.
	Mix workload.YCSBMix
	// Ops is the total request count across all clients. With Measure set
	// and a positive Measure.DurationPS, Ops may be zero: the count is
	// derived from the offered load (time-bounded run).
	Ops int
	// Measure, when non-nil, turns the run open-loop: every request gets
	// an intended start on the simulated clock from a target-throughput
	// arrival schedule, idle shards advance to the next arrival, and
	// Result.Measure reports coordinated-omission-free latency (charged
	// from intended start) next to service time (charged from dispatch),
	// with warmup exclusion, per-op-kind tracks, and a per-interval
	// timeseries. nil keeps the closed-loop behavior byte-identical.
	// (What a feature cannot be combined with: exclusions.)
	Measure *measure.Config
	// Progress, when non-nil, is invoked at every batch boundary with the
	// exact count of globally issued requests (the round-robin interleave
	// makes batch bounds global) by the lowest-id shard still in the world:
	// shard 0, unless a merge retired it. Purely advisory — it feeds live
	// status lines and never affects the result bytes. It runs on that
	// shard's serving goroutine: keep it cheap and do not touch the service
	// from inside it.
	Progress func(done, total int)
	// Keys is the initially populated key-space size.
	Keys uint64
	// DS selects the per-shard structure (default DSHashMap).
	DS DSKind
	// Backend selects each shard's checkpoint store: BackendCore (default)
	// or BackendInCLL.
	Backend string
	// Mode is the libcrpm container mode (Default or Buffered); core
	// backend only.
	Mode core.Mode
	// HeapSize is each shard's container heap (default 64 MB).
	HeapSize int
	// Buckets sizes the hash map (default 1<<17).
	Buckets int
	// BatchOps is the global batch size between policy decisions
	// (default 2048).
	BatchOps int
	// Policy decides cut points (default OpsPolicy{Every: 8192}).
	Policy Policy
	// StepBudget, when positive, enables the incremental cut pipeline:
	// instead of a stop-the-world checkpoint, each cut drains through
	// bounded quanta of StepBudget bytes interleaved between request
	// batches, with acks group-committed at quantum boundaries. Zero
	// keeps stop-the-world cuts (byte-identical to the pre-pipeline
	// behavior) unless Policy is a PausePolicy, which defaults the
	// budget to its quantum.
	StepBudget int
	// Seed drives every random stream via sched.SeedFor labels.
	Seed int64
	// Trace records per-shard spans into Result.Trace.
	Trace bool
	// Parallel bounds the post-run verification fan-out
	// (0 = GOMAXPROCS). It never affects the result bytes.
	Parallel int
	// Crash, if non-nil, injects a power failure and runs recovery, which
	// ends by proving every shard still serves: one probe write, a
	// coordinated cut, and a reread.
	Crash *CrashSpec
	// Replicas gives every shard this many secondaries, each installing
	// the primary's cut deltas asynchronously; reads are routed through
	// the Pileus SLA layer and a crashed shard fails over to its
	// most-current secondary instead of restarting from its own device.
	// Zero disables replication entirely: every replica code path is
	// skipped and all outputs are byte-identical to a replica-free run.
	Replicas int
	// SLAs assigns read SLAs round-robin across clients (client i gets
	// SLAs[i%len]); empty defaults to replica.Mix(). Replicas > 0 only.
	SLAs []replica.SLA
	// Migrations schedules elastic-resharding operations (split, move,
	// merge), run live one at a time while the service keeps serving; see
	// MigrateSpec. With none scheduled the serve loop runs the same hooks,
	// which find nothing to do: no collective, no device primitive, no
	// clock advance.
	Migrations []MigrateSpec
	// AutoSplit makes the service split its hottest shard on its own when
	// load imbalance crosses a threshold; see AutoSplitSpec.
	AutoSplit AutoSplitSpec
}

func (c Config) withDefaults() (Config, error) {
	if c.Shards < 1 {
		return c, fmt.Errorf("server: need at least one shard, have %d", c.Shards)
	}
	if c.Clients < 1 {
		return c, fmt.Errorf("server: need at least one client, have %d", c.Clients)
	}
	if c.Measure != nil {
		m, err := c.Measure.WithDefaults()
		if err != nil {
			return c, err
		}
		c.Measure = &m
		if c.Ops == 0 {
			// Time-bounded run: the op count follows from the offered load.
			c.Ops = m.Ops()
		}
	}
	if c.Ops < 1 {
		return c, ErrNoOps
	}
	if c.Keys < 1 {
		return c, fmt.Errorf("server: need a populated key space")
	}
	if c.DS == "" {
		c.DS = DSHashMap
	}
	switch c.Backend {
	case "":
		c.Backend = BackendCore
	case BackendCore, BackendInCLL:
	default:
		return c, fmt.Errorf("server: unknown backend %q", c.Backend)
	}
	for _, x := range exclusions {
		if x.a(&c) && x.b(&c) {
			return c, x.err
		}
	}
	if c.HeapSize == 0 {
		c.HeapSize = 64 << 20
	}
	if c.Buckets == 0 {
		c.Buckets = 1 << 17
	}
	if c.BatchOps == 0 {
		c.BatchOps = 2048
	}
	if c.Policy == nil {
		c.Policy = OpsPolicy{Every: 8192}
	}
	if c.StepBudget < 0 {
		return c, fmt.Errorf("server: negative step budget %d", c.StepBudget)
	}
	if c.StepBudget == 0 {
		if p, ok := c.Policy.(PausePolicy); ok {
			c.StepBudget = int(p.QuantumBytes)
		}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Mix.Name == "" {
		c.Mix = workload.YCSBA
	}
	if c.Replicas < 0 {
		return c, fmt.Errorf("server: negative replica count %d", c.Replicas)
	}
	if c.Replicas > 0 && len(c.SLAs) == 0 {
		c.SLAs = replica.Mix()
	}
	if c.elastic() {
		// Defaulting AfterCuts below must not write into the caller's slice.
		c.Migrations = slices.Clone(c.Migrations)
		for i := range c.Migrations {
			m := &c.Migrations[i]
			switch m.Kind {
			case MigrateSplit, MigrateMove, MigrateMerge:
			default:
				return c, fmt.Errorf("server: migration %d: unknown kind %q", i, m.Kind)
			}
			if m.Src < 0 {
				return c, fmt.Errorf("server: migration %d: negative source shard %d", i, m.Src)
			}
			if m.Kind != MigrateSplit && m.Dst < 0 {
				return c, fmt.Errorf("server: migration %d: negative destination shard %d", i, m.Dst)
			}
			if m.AfterCuts < 1 {
				m.AfterCuts = 1
			}
		}
		if as := c.AutoSplit; as.MaxShards > 0 {
			if as.MaxShards < c.Shards {
				return c, fmt.Errorf("server: autosplit cap %d below boot shard count %d", as.MaxShards, c.Shards)
			}
		}
	}
	return c, nil
}

// Service is one configured run: the validated config, the ring, and the
// shard set the run builds. The request stream is drawn batch by batch
// while the run serves (feed.go).
type Service struct {
	cfg Config
	// ring maps keys to shards. At boot its slot→shard assignment is exactly
	// splitmix64(key) % Shards, the modulo routing the service shipped with
	// (ring.TestRingMatchesModuloRouting). Every rank routes on a private
	// clone of it, flipped at coordinated cuts; after a crash it is replaced
	// by the landing epoch's table.
	ring       *ring.Ring
	opts       core.Options
	deviceSize int
	feed       *opFeed
	batches    int
	shards     []*shard
	// migs is every migration's record, in start order (migrate.go).
	migs []*migration
	// wholeQuanta is a test hook: every migration quantum retires all the
	// work there is, wherever it runs. The quantum size is a constant
	// (migQuantumItems), deliberately not configuration.
	wholeQuanta bool
	// beforeSnapshot is a test hook: the source calls it on itself right
	// before it walks its KV for a migration's snapshot.
	beforeSnapshot func(sh *shard, m *migration)
	// noPreFlush is a test hook: idle gaps leave the whole flush to the cut,
	// the control a run with gap pre-flush is compared against.
	noPreFlush bool
	// noDeferCoW is a test hook: every epoch's copy-on-write runs inline, on
	// the segment's first store, the control a run that defers it into the
	// gaps is compared against.
	noDeferCoW bool
	// devs is every device the run mapped, primaries' and secondaries', for
	// Close; ranks add theirs concurrently, under devsMu. s.shards cannot
	// stand in: promotion and merges move devices between shards.
	devsMu sync.Mutex
	devs   []*nvm.Device
}

// mapped records a device the run mapped, for Close.
func (s *Service) mapped(d *nvm.Device) {
	s.devsMu.Lock()
	defer s.devsMu.Unlock()
	s.devs = append(s.devs, d)
}

// Close hands back every device the run mapped (nvm.Device.Close). Call it
// once the run's Result is read; the span accessors still answer after it.
// Closing twice is a no-op.
func (s *Service) Close() {
	s.devsMu.Lock()
	defer s.devsMu.Unlock()
	for _, d := range s.devs {
		d.Close()
	}
	s.devs = nil
}

// New validates the config and sizes the run. Requests are drawn
// round-robin across clients (client i issues global requests i,
// i+Clients, ...), each stream seeded from a sched.SeedFor label, and
// dispatched in global order to the shard owning the key's ring slot. The
// stream — and therefore everything downstream — is a pure function of cfg.
func New(cfg Config) (*Service, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	reg := region.Config{HeapSize: cfg.HeapSize, BackupRatio: 1}
	s := &Service{
		cfg:     cfg,
		ring:    ring.New(cfg.Shards, ring.DefaultVnodes),
		opts:    mpi.ContainerOptions(reg, cfg.Mode),
		batches: (cfg.Ops + cfg.BatchOps - 1) / cfg.BatchOps,
	}
	if cfg.Backend == BackendInCLL {
		size, err := incll.DeviceSize(cfg.HeapSize)
		if err != nil {
			return nil, err
		}
		s.deviceSize = size
	} else {
		l, err := region.NewLayout(reg)
		if err != nil {
			return nil, err
		}
		s.deviceSize = l.DeviceSize()
	}
	return s, nil
}

// ShardStats is one shard's deterministic run summary.
type ShardStats struct {
	Shard int
	// Ops is the count of acked requests (including any acked after the
	// last cut, which a crash is allowed to lose).
	Ops  uint64
	Cuts int
	// Epoch is the shard's committed epoch at the end of the run (after
	// recovery, for crashed runs).
	Epoch uint64
	// SimPS is the shard's simulated clock at the end of serving.
	SimPS int64
	// Latency quantiles over acked requests, picoseconds.
	P50LatPS, P99LatPS, P999LatPS int64
	// Pause statistics over this shard's coordinated cuts (commit plus
	// barrier wait; under the incremental pipeline, every checkpoint
	// quantum; with the copy-on-write deferred into idle gaps, every replay
	// quantum too), picoseconds.
	P99PausePS, P999PausePS, PauseMaxPS int64
	// Replication accounting (Config.Replicas > 0; zero otherwise).
	// Reads counts the SLA-routed reads, SecReads those served by
	// secondaries, UnmetReads those degraded to the primary because no
	// replica met the SLA.
	Reads, SecReads, UnmetReads uint64
	// StaleMeanEpochs is the mean staleness (committed epochs behind the
	// primary) over secondary-served reads; P99ReadLatPS the SLA-routed
	// read latency (RTT plus replica work).
	StaleMeanEpochs float64
	P99ReadLatPS    int64
}

// Violation is one consistency failure found by verification.
type Violation struct {
	Shard int
	// Stage names the check that failed: "verify" (the shard's KV against
	// its oracle), "replica" (a secondary against its oracle), "ownership"
	// (the shard's KV against the sequential replay's keys its ring gives
	// it), "applied", "ring", "read", "epoch", "recover" or "liveness".
	// Shard is -1 for a fleet-wide finding.
	Stage  string
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("shard %d: %s: %s", v.Shard, v.Stage, v.Detail)
}

// Result is a completed run.
type Result struct {
	Shards   []ShardStats
	TotalOps uint64
	Cuts     int
	// SimPS is the slowest shard's simulated serving time.
	SimPS int64
	// ThroughputOps is acked operations per simulated second.
	ThroughputOps float64
	// P99LatPS, P999LatPS, and MaxPausePS aggregate the worst shard.
	P99LatPS   int64
	P999LatPS  int64
	MaxPausePS int64
	// Recovery outcome for crashed runs.
	Recovered      bool
	RecoveredEpoch uint64
	CrashedShard   int
	// Failover outcome (Replicas > 0 crashed runs): the crashed shard's
	// routing flipped to PromotedReplica at cut boundary PromotedEpoch.
	FailedOver      bool
	PromotedReplica int
	PromotedEpoch   uint64
	// Aggregate SLA accounting (Replicas > 0).
	SecReads, UnmetReads uint64
	StaleMeanEpochs      float64
	// Migrations summarizes every elastic-resharding operation the run
	// performed, in start order (Config.Migrations / Config.AutoSplit;
	// empty otherwise).
	Migrations []MigrationStat
	// Violations is empty iff every consistency check passed.
	Violations []Violation
	// Measure is the merged open-loop measurement report (Config.Measure
	// != nil; nil otherwise). Shard collectors merge in shard order, so
	// the report is a pure function of the config.
	Measure *measure.Report
	// Trace holds one track per shard when Config.Trace is set.
	Trace *obs.Trace
}

// OK reports whether the run (and recovery, if any) was consistent.
func (r *Result) OK() bool { return len(r.Violations) == 0 }

// Run executes the service: populate, serve every batch with policy-led
// coordinated cuts, then either verify all shards against their live
// shadows (clean runs) or crash, recover, and verify against the
// recovered epoch's snapshot.
func (s *Service) Run() (*Result, error) {
	maxN := s.maxShards()
	s.shards = make([]*shard, maxN)
	s.feed = s.newFeed()
	s.migs = nil
	errs := mpi.NewWorldCap(s.cfg.Shards, maxN).Run(func(c *mpi.Comm) { s.serveRank(c) })

	// Drop the capacity slots no split ever spawned into. Ids are dense
	// (mpi.Grow enforces it), so only trailing entries can be nil.
	for len(s.shards) > s.cfg.Shards && s.shards[len(s.shards)-1] == nil {
		s.shards = s.shards[:len(s.shards)-1]
	}
	crashedRank := -1
	for i, err := range errs {
		switch err.(type) {
		case nil:
		case nvm.InjectedCrash:
			crashedRank = i
		default:
			return nil, fmt.Errorf("server: shard %d: %w", i, err)
		}
	}
	if s.cfg.Crash != nil && crashedRank < 0 {
		return nil, fmt.Errorf("server: injected crash at primitive %d on shard %d never fired (run has fewer primitives)",
			s.cfg.Crash.At, s.cfg.Crash.Shard)
	}

	res := &Result{CrashedShard: crashedRank}
	if crashedRank >= 0 {
		s.recoverAll(res)
	} else {
		s.verifyClean(res)
	}
	// Online checks of routed reads (routeRead) count on either path: a
	// crash does not excuse a read served before it.
	for _, sh := range s.shards {
		for _, d := range sh.repViol {
			res.Violations = append(res.Violations, Violation{Shard: sh.id, Stage: "replica", Detail: d})
		}
	}
	for _, m := range s.migs {
		res.Migrations = append(res.Migrations, m.stat())
	}
	s.fillStats(res)
	if s.cfg.Measure != nil {
		// Reduce shard collectors in shard order. Every anchored shard
		// shares the same barrier-aligned schedule; a shard that crashed
		// before anchoring contributes nothing.
		var agg *measure.Collector
		for _, sh := range s.shards {
			if sh.meas == nil {
				continue
			}
			if agg == nil {
				agg = measure.NewCollector(*s.cfg.Measure, sh.msched)
			}
			if err := agg.Merge(sh.meas); err != nil {
				return nil, fmt.Errorf("server: merging measurement collectors: %w", err)
			}
		}
		if agg != nil {
			res.Measure = agg.Report(s.cfg.Measure.TargetOps)
		}
	}
	if s.cfg.Trace {
		res.Trace = &obs.Trace{}
		for _, sh := range s.shards {
			res.Trace.Add(fmt.Sprintf("serve/shard%d", sh.id), sh.rec)
			if sh.reps != nil {
				for i := 0; i < sh.reps.Len(); i++ {
					res.Trace.Add(fmt.Sprintf("serve/shard%d/replica%d", sh.id, i), sh.reps.Sec(i).Recorder())
				}
			}
		}
	}
	return res, nil
}

// PrimitiveSpans reports each shard's serving-phase device primitive
// range [base, end) from the last completed Run. A torture sweep crashes
// a reference-identical run at every index inside a span.
func (s *Service) PrimitiveSpans() [][2]int64 {
	spans := make([][2]int64, len(s.shards))
	for i, sh := range s.shards {
		spans[i] = [2]int64{sh.primBase, sh.primEnd}
	}
	return spans
}

// RequestSpans is PrimitiveSpans less an open-loop run's drain of the
// populate's copy-on-write ahead of the first arrival: each shard's range
// [first request's, end) from the last completed Run, where a crash kills
// a primary that is serving.
func (s *Service) RequestSpans() [][2]int64 {
	spans := make([][2]int64, len(s.shards))
	for i, sh := range s.shards {
		spans[i] = [2]int64{sh.reqBase, sh.primEnd}
	}
	return spans
}

// runRank is the shell every rank loop shares: a shard on a fresh device
// with crash injection armed before the first container primitive, a
// formatted backend with the allocator and KV inside it, then body. An
// injected crash or an error fails the world, so peers parked at
// collectives unwind; a rank that stops early, crashed or unwound, ends
// its simulated time there.
func (s *Service) runRank(c *mpi.Comm, body func(sh *shard) error) {
	rank := c.Rank()
	sh := newShardShell(rank, s.deviceSize, s.cfg.StepBudget, s.cfg.Trace)
	s.mapped(sh.dev)
	if s.wholeQuanta {
		sh.quantumN = 0
	}
	sh.preFlush = s.cfg.StepBudget == 0 && !s.noPreFlush
	sh.deferCoW = s.cfg.StepBudget == 0 && s.cfg.Measure != nil && !s.noDeferCoW
	sh.ring = s.ring.Clone()
	sh.appliedBits = make([]uint64, (s.cfg.Ops+63)/64)
	sh.cutOps = make(map[uint64]int)
	s.shards[rank] = sh
	c.AttachClock(sh.clock)
	defer func() {
		if sh.simEndPS == 0 {
			sh.simEndPS = sh.clock.NowPS()
		}
		switch r := recover().(type) {
		case nil:
		case nvm.InjectedCrash:
			c.Fail(r)
		default:
			panic(r)
		}
	}()
	if cr := s.cfg.Crash; cr != nil && cr.Shard == rank {
		sh.dev.FailAfter(cr.At - 1) // primitive count is 0 here
	}
	ctr, err := s.newBackend(sh.dev)
	if err != nil {
		err = fmt.Errorf("server: shard %d backend: %w", rank, err)
	}
	if err == nil {
		err = sh.init(ctr, s.cfg.DS, s.cfg.Buckets)
	}
	if err == nil {
		err = body(sh)
	}
	if err != nil {
		c.Fail(err)
	}
}

// serveRank is one boot shard's request loop, run as an mpi rank.
func (s *Service) serveRank(c *mpi.Comm) {
	s.runRank(c, func(sh *shard) error {
		if s.cfg.Replicas > 0 {
			if err := s.initReplicas(sh); err != nil {
				return err
			}
		}
		return s.serve(c, sh)
	})
}

// serve runs populate plus the batched request loop. All device work
// happens between collectives, and every branch below is decided by
// globally reduced values, so each shard's device state at every barrier
// is a pure function of the config — which is what makes both the clean
// results and the crash images deterministic.
func (s *Service) serve(c *mpi.Comm, sh *shard) error {
	sh.rec.Begin("populate")
	for k := uint64(0); k < s.cfg.Keys; k++ {
		if s.ring.Owner(k) != sh.id {
			continue
		}
		if err := sh.kv.Put(k, k); err != nil {
			return err
		}
		sh.shadow.put(k, k)
	}
	sh.rec.End()
	// The populate cut is stop-the-world whatever the run's cut style:
	// nothing is being served yet, so there is no pause to budget.
	if err := s.cutThrough(c, sh, true); err != nil {
		return err
	}
	sh.primBase = sh.dev.PrimitiveCount()
	sh.reqBase = sh.primBase
	if m := s.cfg.Measure; m != nil {
		// Everything up to the first arrival is idle time of unbounded
		// length, and the first requests would otherwise pay for the epoch's
		// copy-on-write of every populated segment — whole-segment first
		// pairings — with a backlog that outlasts them. So it is deferred
		// like any later epoch's and drained on the spot. The barrier the
		// populate cut ended in is what makes that legal: every rank has
		// committed, so the epoch before is nobody's landing epoch any more
		// and its backups may be overwritten. Closed loop has no arrivals to
		// protect and keeps its copy-on-write lazy.
		sh.ctr.DeferCoW(foreverPS)
		sh.ctr.StepCoW(0)
		sh.reqBase = sh.dev.PrimitiveCount()
		// The barrier realigns the clocks, so every rank reads the identical
		// timestamp here: anchoring the arrival schedule at it gives all
		// shards the same intended timestamps with no extra coordination.
		c.Barrier()
		sh.msched = measure.NewSchedule(sh.clock.NowPS(), *m)
		sh.meas = measure.NewCollector(*m, sh.msched)
	}
	return s.serveLoop(c, sh, 0)
}

// serveLoop is the batched request loop, shared by boot ranks (startBatch
// 0) and split-spawned ranks (which enter at the batch after their join,
// already in step with the world's collective sequence). Each rank
// walks the shared batch feed and dispatches an op iff its ring owns the
// key's slot — ring clones flip identically at identical boundaries, so
// exactly one rank applies each op, which the rank marks for the clean
// run's exactly-once check.
//
// Every batch boundary is either one step of the cut in flight or a policy
// round that may begin one (cutBegin, cutStep), then advance the migration
// state machine and retire a merged-away rank (migRound, retireRound: with
// no migration scheduled they find nothing to do); the loop itself holds
// no cut or migration state.
func (s *Service) serveLoop(c *mpi.Comm, sh *shard, startBatch int) error {
	stw := s.cfg.StepBudget == 0
	for b := startBatch; b < s.batches; b++ {
		if !sh.inEpoch {
			sh.rec.Begin("epoch")
			sh.inEpoch = true
		}
		served := 0
		for _, so := range s.feed.batch(b) {
			if sh.ring.OwnerOfSlot(so.slot) != sh.id {
				continue
			}
			served++
			if err := sh.apply(so.seq, so.op); err != nil {
				return err
			}
			markApplied(sh.appliedBits, so.seq)
			sh.roundOps++
			sh.maybeLogMig(so)
		}
		sh.issued = min((b+1)*s.cfg.BatchOps, s.cfg.Ops)
		if sh.meas != nil && (served == 0 || sh.phase == cutIdle) {
			// Open loop: whatever is left of the batch's arrival window after
			// this shard's last request is idle time, for every tenant of a
			// gap. Every rank derives the window's end from the shared
			// schedule, no collective needed. A shard that had arrivals and
			// holds their acks for an incremental cut in flight goes straight
			// to the boundary, whose quantum releases them: its tail is a few
			// arrivals long, and the cut's quanta are budgeted per gap.
			if err := sh.idleTail(sh.msched.IntendedPS(sh.issued - 1)); err != nil {
				return err
			}
		}
		// Draw the next batch before the boundary collective: whichever rank
		// finishes first generates while the others still serve.
		s.feed.batch(b + 1)
		if s.cfg.Progress != nil && sh.reports {
			s.cfg.Progress(sh.issued, s.cfg.Ops)
		}
		if sh.reps != nil {
			// Batch boundary: install every shipped delta whose simulated
			// replication lag has elapsed on the aligned clock.
			if _, err := sh.reps.Deliver(sh.clock.NowPS()); err != nil {
				return err
			}
		}
		if sh.phase != cutIdle {
			// An incremental cut is in flight: one bounded checkpoint
			// quantum between request batches instead of a policy round.
			if err := s.cutStep(c, sh); err != nil {
				return err
			}
			continue
		}
		// Policy round: the allreduces also align clocks, so Since is
		// identical on every rank and the decision is global.
		ops := c.AllreduceU64(sh.sinceCut, mpi.Sum)
		dirty := c.AllreduceU64(s.dirtyEstimate(sh), mpi.Sum)
		now := sh.clock.NowPS()
		since := time.Duration((now - sh.cutStartPS) / 1000)
		round := time.Duration((now - sh.roundPS) / 1000)
		sh.roundPS = now
		doCut := ops > 0 && s.cfg.Policy.Cut(CutStats{Ops: ops, DirtyBytes: dirty, Since: since, Round: round, Shards: s.cfg.Shards})
		// Advance the migration state machine — also right before a cut, or
		// back-to-back cuts (a saturated incremental pipeline, a policy that
		// fires every round) would starve it.
		idle := sh.migPhase == migIdle
		justCut := sh.cuts != sh.lastRoundCuts
		sh.lastRoundCuts = sh.cuts
		if err := s.migRound(c, sh, b, justCut, false); err != nil {
			return err
		}
		if idle && sh.migPhase != migIdle {
			// A migration started and may have grown the world; the spawned
			// rank only joins the collective sequence at the next batch
			// boundary. Push the cut to the next round, where it fires again
			// with the newcomer in step.
			doCut = false
		}
		if doCut {
			if err := s.cutBegin(c, sh, stw); err != nil {
				return err
			}
			if sh.deferCoW {
				// Stop-the-world, the cut has landed and its barrier is behind
				// every rank: the epoch before is nobody's landing epoch any
				// more, so the new epoch's copy-on-write may move behind its
				// first stores, into the gaps — if the backend judges that the
				// gaps of the epoch just closed, and what migration quanta took
				// of the arrivals behind them, had room for it.
				sh.ctr.DeferCoW(sh.lentPS)
				sh.lentPS = 0
			}
			continue
		}
		done, err := s.retireRound(c, sh)
		if err != nil {
			return err
		}
		if done {
			return nil // this rank merged away and left the world
		}
	}
	// Drain an in-flight cut before closing out: the pipeline must be
	// idle for end-of-run verification (and any final cut).
	for sh.phase != cutIdle {
		if err := s.cutStep(c, sh); err != nil {
			return err
		}
	}
	if sh.meas != nil {
		// Past the last arrival the gap has no end: whatever the gaps still
		// owe is done now, off every request's path, the youngest dirt a
		// bounded gap leaves to the cut included (core.PreFlush, Forever).
		// The close-out cut would do it anyway, inside its pause — 75 us with
		// the last epoch's dirt left unflushed, against 0.6 us (commit and
		// barrier) on the repo benchmark's split_merge (seed 1), whose pause
		// p95 is 4.35 us over ~117 000 stalls.
		if err := sh.idleTail(foreverPS); err != nil {
			return err
		}
	}
	// Force every remaining migration through to its flip so the ring is
	// quiescent for verification.
	if err := s.migEndDrain(c, sh); err != nil {
		return err
	}
	if c.AllreduceU64(sh.sinceCut, mpi.Sum) > 0 {
		// Close out in the run's own cut style: under the pipeline the
		// pause profile stays budgeted all the way to the last ack.
		if err := s.cutThrough(c, sh, stw); err != nil {
			return err
		}
	} else {
		c.Barrier() // align end-of-run clocks
	}
	if sh.inEpoch {
		sh.rec.End()
		sh.inEpoch = false
	}
	sh.simEndPS = sh.clock.NowPS()
	sh.primEnd = sh.dev.PrimitiveCount()
	if sh.reps != nil {
		// Quiesce replication so end-of-run verification sees every
		// secondary exactly at the final cut (pure replica-side work:
		// the primary's clock and primitive count are already final).
		if err := sh.reps.DeliverAll(); err != nil {
			return err
		}
	}
	return nil
}

// newBackend formats a shard's checkpoint store on a fresh device, and
// reopenBackend reopens it from a crashed image with recovery deferred
// (the coordinated protocol decides whether to roll back first).
func (s *Service) newBackend(dev *nvm.Device) (CutBackend, error) {
	if s.cfg.Backend == BackendInCLL {
		return incll.Format(s.cfg.HeapSize, dev)
	}
	return core.NewContainer(dev, s.opts)
}

func (s *Service) reopenBackend(dev *nvm.Device) (CutBackend, error) {
	if s.cfg.Backend == BackendInCLL {
		return incll.OpenDeferRecovery(s.cfg.HeapSize, dev)
	}
	return core.OpenContainerDeferRecovery(dev, s.opts)
}

// dirtyEstimate feeds the policy's DirtyBytes: what the epoch has dirtied
// for stop-the-world cuts (early write-back included), the exact pending
// cut footprint when the incremental pipeline is on (a PausePolicy
// budgets against it, and in buffered mode the two differ by the
// pending replica blocks). The pipeline implies the core backend, so the
// typed handle is always live on that path.
func (s *Service) dirtyEstimate(sh *shard) uint64 {
	if s.cfg.StepBudget > 0 {
		return uint64(sh.core.PendingCutBytes())
	}
	return sh.ctr.DirtyEstimateBytes()
}

// The cut lifecycle. A shard's coordinated cut is one state machine,
//
//	idle ──cutBegin──▶ flush ──cutStep: drained everywhere, commit+barrier──▶ replay ──cutStep: drained everywhere──▶ idle
//
// and a stop-the-world cut is the same lifecycle whose begin already lands
// (commit plus barrier in one call, idle → idle). Whatever the style, the
// epoch closes out in exactly one place, cutLanded.

// cutBegin opens one coordinated cut at a boundary every rank reached with
// the identical decision. A flip the last cut carried binds to this one, so
// a destination first applies whatever its idle gaps and requests have not
// pulled yet of its pull set; a flip-ready migration rides it, and every
// ring clone flips (preFlip). The cut records the op count it began at
// (cutOps), and the shadow is marked as the image of the epoch about to
// commit — before the commit, so the image exists wherever inside the
// protocol a crash lands — and the replica delta is captured while the dirty set is still
// intact (a pure DRAM copy: no device primitives, so crash-injection points
// are untouched); it ships only once the cut has landed, so an aborted cut
// never reaches a secondary.
//
// Stop-the-world, the §3.6 commit-then-barrier runs here and the cut lands
// at once. Otherwise the pipeline opens and acks are deferred to quantum
// fences from here on: stores that land while the cut is in flight are
// diverted past it by the write barrier, and the requests behind them
// count toward the next epoch — which is why sinceCut restarts at begin,
// not at landing (stop-the-world, the two coincide).
func (s *Service) cutBegin(c *mpi.Comm, sh *shard, stw bool) error {
	if sh.migWork.owed != nil {
		if err := sh.migQuantum(0); err != nil {
			return err
		}
	}
	if sh.migPhase == migFlipReady {
		if err := s.preFlip(c, sh); err != nil {
			return err
		}
	}
	sh.cutOps[sh.epochOff+sh.ctr.CommittedEpoch()+1] = sh.issued
	sh.snapshotForNextCut()
	sh.sinceCut = 0
	t0 := sh.clock.NowPS()
	if sh.reps != nil {
		// The stores of a deferred copy-on-write replay still in flight are
		// staged in no dirty set (core.EpochRuns): the cut finishes it first,
		// inside its pause, as the checkpoint itself would.
		sh.ctr.StepCoW(0)
		d, err := sh.reps.Capture(sh.core)
		if err != nil {
			return err
		}
		sh.pendDelta = d
	}
	if stw {
		sh.rec.Begin("ckpt-pause")
		if err := mpi.Checkpoint(c, sh.ctr); err != nil {
			return err
		}
		sh.rec.End()
		return s.cutLanded(sh, t0)
	}
	sh.rec.Begin("ckpt-begin")
	err := sh.core.CheckpointBegin()
	sh.rec.End()
	if err != nil {
		return err
	}
	sh.observePause(sh.clock.NowPS() - t0)
	sh.phase = cutFlush
	return nil
}

// cutStep advances the in-flight cut by one quantum and handles its two
// global transitions: once the flush remainder reaches zero everywhere,
// flip the epoch, then barrier so every rank holds both epochs before any
// rank's replay may overwrite epoch e state (§3.6's commit-then-barrier,
// incrementally) — the cut lands; once the replay remainder does, the
// pipeline is idle.
func (s *Service) cutStep(c *mpi.Comm, sh *shard) error {
	rem, err := sh.quantum()
	if err != nil {
		return err
	}
	if c.AllreduceU64(uint64(rem), mpi.Sum) > 0 {
		return nil
	}
	if sh.phase == cutReplay {
		sh.phase = cutIdle
		return nil
	}
	t0 := sh.clock.NowPS()
	sh.rec.Begin("ckpt-pause")
	if err := sh.core.CheckpointCommit(); err != nil {
		return err
	}
	c.Barrier()
	sh.rec.End()
	sh.phase = cutReplay
	return s.cutLanded(sh, t0)
}

// cutLanded closes out the epoch a cut just committed globally (commit
// plus barrier behind us, begun at pauseStartPS): the pause sample and the
// epoch span, the replica delta — it rides that fence, so every
// replicated delta corresponds to a cut recovery can land on — the cut
// count and the policy's clocks, and the ring flip the cut carried, now
// committed with it (binding at the next cut): the source queues the
// deletion of its moved keys (postFlip).
func (s *Service) cutLanded(sh *shard, pauseStartPS int64) error {
	sh.observePause(sh.clock.NowPS() - pauseStartPS)
	if sh.inEpoch {
		sh.rec.End() // epoch
		sh.inEpoch = false
	}
	if sh.pendDelta != nil {
		sh.reps.Ship(sh.pendDelta, sh.clock.NowPS())
		sh.pendDelta = nil
	}
	sh.cuts++
	sh.cutStartPS = sh.clock.NowPS()
	sh.roundPS = sh.cutStartPS
	s.postFlip(sh)
	return nil
}

// cutThrough takes one whole cut in place, begin to idle: the populate
// cut, the close-out cut, and the forced flips of the end-of-run migration
// drain.
func (s *Service) cutThrough(c *mpi.Comm, sh *shard, stw bool) error {
	if err := s.cutBegin(c, sh, stw); err != nil {
		return err
	}
	for sh.phase != cutIdle {
		if err := s.cutStep(c, sh); err != nil {
			return err
		}
	}
	return nil
}

// crashPolicy resolves one shard's line fates at the global power
// failure.
func (s *Service) crashPolicy(shardID int) nvm.CrashPolicy {
	if cr := s.cfg.Crash; cr.Policy != nil {
		return cr.Policy(shardID)
	}
	seed := sched.SeedFor(fmt.Sprintf("serve/%d/crash/%d/%d", s.cfg.Seed, s.cfg.Crash.At, shardID))
	return nvm.SeededCrash(rand.New(rand.NewSource(seed)))
}

// rankWorld runs fn as one mpi rank per member shard — rank i is
// members[i], on the shard's clock — and reports every failed rank as a
// violation of the given stage. A failing rank fails the world, so peers
// parked at collectives unwind instead of waiting for it forever.
func rankWorld(members []*shard, stage string, fn func(c *mpi.Comm, sh *shard) error) []Violation {
	errs := mpi.NewWorld(len(members)).Run(func(c *mpi.Comm) {
		sh := members[c.Rank()]
		c.AttachClock(sh.clock)
		if err := fn(c, sh); err != nil {
			c.Fail(err)
		}
	})
	var bad []Violation
	for i, err := range errs {
		if err != nil {
			bad = append(bad, Violation{Shard: members[i].id, Stage: stage, Detail: err.Error()})
		}
	}
	return bad
}

// recoverAll models the global power failure and the coordinated
// restart: every device crashes, every container reopens with recovery
// deferred, the ranks agree on the minimum committed epoch (rolling
// back any shard that committed one ahead), and each recovered KV is
// verified against the shadow snapshot of the landing epoch: zero
// acked-across-a-cut ops lost, zero applied twice. A run that migrated is
// also checked across shards, on the landing epoch's ring
// (landingOwnership).
//
// Under replication the crashed shard's node is lost outright, device and
// all. Its rank is then a Promotion of its most-current secondary — just
// another mpi.Recoverable in the same unmodified protocol — and once the
// world has agreed on the landing epoch the shard's routing flips to the
// promoted replica, atomically at that cut boundary.
func (s *Service) recoverAll(res *Result) {
	lost := -1
	if s.cfg.Replicas > 0 {
		lost = res.CrashedShard
	}
	// Membership at the failure: a merged-away source that already retired
	// cannot rejoin the coordinated protocol — its committed epoch froze at
	// its departure, which would trip the at-most-one-behind rule. It
	// recovers locally instead (recoverRetired); everyone else forms the
	// recovery world, with ranks remapped over the survivors. Epochs are
	// compared in the global cut numbering via each shard's join offset.
	var members, retired []*shard
	for _, sh := range s.shards {
		if sh.id != lost {
			sh.dev.CrashWith(s.crashPolicy(sh.id))
		}
		if sh.retired {
			retired = append(retired, sh)
		} else {
			members = append(members, sh)
		}
	}
	n := len(members)
	ctrs := make([]CutBackend, n)
	landed := make([]uint64, n)
	var prom *replica.Promotion
	res.Violations = append(res.Violations, rankWorld(members, "recover", func(c *mpi.Comm, sh *shard) error {
		var rec mpi.Recoverable
		var span *obs.Recorder // failovers trace the protocol; plain restarts do not
		if sh.id == lost {
			p, err := sh.reps.Promotion()
			if err != nil {
				return err
			}
			prom = p
			c.AttachClock(p.Secondary().Clock())
			ctrs[c.Rank()], rec, span = p.Secondary().Container(), p, p.Secondary().Recorder()
		} else {
			ctr, err := s.reopenBackend(sh.dev)
			if err != nil {
				return fmt.Errorf("reopen: %w", err)
			}
			ctrs[c.Rank()], rec = ctr, offsetRecoverable{ctr: ctr, off: sh.epochOff}
			if lost >= 0 {
				span = sh.rec
			}
		}
		span.Begin("failover")
		err := mpi.Recover(c, rec)
		span.End()
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		landed[c.Rank()] = rec.CommittedEpoch()
		return nil
	})...)
	if len(res.Violations) > 0 {
		return
	}
	epoch := landed[0]
	for i, e := range landed {
		if e != epoch {
			res.Violations = append(res.Violations, Violation{
				Shard: members[i].id, Stage: "epoch",
				Detail: fmt.Sprintf("recovered to global epoch %d, shard %d to %d", e, members[0].id, epoch),
			})
		}
	}
	if len(res.Violations) > 0 {
		return
	}
	res.Recovered, res.RecoveredEpoch = true, epoch
	if prom != nil {
		sec := prom.Secondary()
		res.FailedOver, res.PromotedReplica, res.PromotedEpoch = true, sec.ID(), epoch
		s.shards[lost].adoptReplica(sec)
		for _, sh := range s.shards {
			// Cuts beyond the landing epoch never globally committed: drop
			// them from every receive buffer, and quarantine any survivor's
			// secondary that had already installed ahead of the landing.
			sh.reps.DropAbove(epoch)
		}
	}
	if epoch == 0 {
		// Crash before the populate cut committed anywhere: nothing was
		// ever acked across a cut, so there is nothing to verify (the
		// heap predates the allocator format).
		return
	}
	s.verifyLanding(res, epoch, members, retired, ctrs)
	if len(res.Violations) == 0 {
		s.liveness(res, members)
	}
}

// verifyClean is the tail of a clean run: every shard's KV must equal its
// oracle's open epoch, and every op was applied exactly once.
func (s *Service) verifyClean(res *Result) {
	owned := s.verifyOwnership(res)
	s.verify(res, s.shards, owned, func(i int) (image, error) { return s.shards[i].shadow.open(), nil })
	s.verifyApplied(res)
}

// verifyLanding is the tail of a crashed run that landed on global epoch
// epoch: members recovered into ctrs, each retired shard recovers on its
// own, and every KV must equal its oracle's image of the landing.
func (s *Service) verifyLanding(res *Result, epoch uint64, members, retired []*shard, ctrs []CutBackend) {
	// Route on the landing epoch's ring from here on, so liveness probes
	// route the way the recovered service would.
	var owned []share
	if rg, err := s.ringAt(epoch); err != nil {
		res.Violations = append(res.Violations, Violation{Shard: -1, Stage: "ring", Detail: err.Error()})
	} else {
		s.ring = rg
		if len(s.migs) > 0 {
			owned = s.landingOwnership(res, epoch, rg)
		}
	}
	all := slices.Concat(members, retired)
	s.verify(res, all, owned, func(i int) (image, error) {
		if i >= len(members) {
			return s.recoverRetired(all[i], epoch)
		}
		return all[i].rebind(ctrs[i], s.cfg.DS, epoch-all[i].epochOff)
	})
}

// verify is the end of every run, clean or crashed: one cell per shard,
// which readies the shard (ready returns the oracle image its KV must
// hold), checks the KV against that image and then the shard's replicas
// against theirs, and then — in a run that migrated (owned != nil), once
// the KV has matched its oracle — holds the KV against its share of the
// sequential replay, walking it through the shard's view, which charges no
// reads. The KV is walked, not the oracle, so the replay stays an
// independent check. Each cell reads only its own shard, and reduction is
// in shard order, so the fan-out's parallelism cannot change the result.
func (s *Service) verify(res *Result, shards []*shard, owned []share, ready func(i int) (image, error)) {
	vs := sched.Map(len(shards), sched.Options{Workers: s.cfg.Parallel}, func(i int) (bad [3][]string) {
		want, err := ready(i)
		if err != nil {
			bad[0] = []string{err.Error()}
			return bad
		}
		sh := shards[i]
		bad[0], bad[1] = verifyKV(sh.kv, want, nil), sh.verifyReplicas(res.Recovered)
		if bad[0] == nil && owned != nil {
			o := owned[sh.id]
			bad[2] = verifyKV(sh.view, o.image(), o.stray)
		}
		return bad
	})
	for i, bad := range vs {
		for stage, details := range bad {
			for _, d := range details {
				res.Violations = append(res.Violations, Violation{Shard: shards[i].id, Stage: [...]string{"verify", "replica", "ownership"}[stage], Detail: d})
			}
		}
	}
}

// liveness proves the recovered service still serves and commits: every
// member shard owning keyspace writes a probe key it owns (on the
// landing-epoch ring), the world takes one coordinated cut, and the probe
// is read back. A zero-weight member (a merged-away source that had not
// yet retired) owns no routable key, so it only joins the cut.
func (s *Service) liveness(res *Result, members []*shard) {
	const marker = 0x11FE11FE11FE11FE
	res.Violations = append(res.Violations, rankWorld(members, "liveness", func(c *mpi.Comm, sh *shard) error {
		probe := s.ring.Weight(sh.id) > 0
		key := uint64(1) << 62
		if probe {
			for s.ring.Owner(key) != sh.id {
				key++
			}
			if err := sh.kv.Put(key, marker); err != nil {
				return fmt.Errorf("probe put: %w", err)
			}
		}
		if err := mpi.Checkpoint(c, sh.ctr); err != nil {
			return fmt.Errorf("probe cut: %w", err)
		}
		if !probe {
			return nil
		}
		if v, ok := sh.kv.Get(key); !ok || v != marker {
			return fmt.Errorf("probe reread: got %d,%v", v, ok)
		}
		return nil
	})...)
}

// fillStats assembles the deterministic per-shard and aggregate numbers.
func (s *Service) fillStats(res *Result) {
	var staleSum, staleN int64
	for _, sh := range s.shards {
		st := ShardStats{
			Shard:       sh.id,
			Ops:         sh.acked,
			Cuts:        sh.cuts,
			SimPS:       sh.simEndPS,
			P50LatPS:    sh.lat.Quantile(0.50),
			P99LatPS:    sh.lat.Quantile(0.99),
			P999LatPS:   sh.lat.Quantile(0.999),
			P99PausePS:  sh.pause.Quantile(0.99),
			P999PausePS: sh.pause.Quantile(0.999),
			PauseMaxPS:  sh.pause.Max(),
		}
		if sh.ctr != nil {
			st.Epoch = sh.epochOff + sh.ctr.CommittedEpoch()
		}
		if sh.reps != nil {
			st.Reads = uint64(sh.readLat.N())
			st.SecReads = sh.secReads
			st.UnmetReads = sh.unmetReads
			st.P99ReadLatPS = sh.readLat.Quantile(0.99)
			if sh.stale.N() > 0 {
				st.StaleMeanEpochs = float64(sh.stale.Sum()) / float64(sh.stale.N())
			}
			res.SecReads += sh.secReads
			res.UnmetReads += sh.unmetReads
			staleSum += sh.stale.Sum()
			staleN += sh.stale.N()
		}
		res.Shards = append(res.Shards, st)
		res.TotalOps += st.Ops
		if st.Cuts > res.Cuts {
			res.Cuts = st.Cuts
		}
		if st.SimPS > res.SimPS {
			res.SimPS = st.SimPS
		}
		if st.P99LatPS > res.P99LatPS {
			res.P99LatPS = st.P99LatPS
		}
		if st.P999LatPS > res.P999LatPS {
			res.P999LatPS = st.P999LatPS
		}
		if st.PauseMaxPS > res.MaxPausePS {
			res.MaxPausePS = st.PauseMaxPS
		}
	}
	if res.SimPS > 0 {
		res.ThroughputOps = float64(res.TotalOps) * 1e12 / float64(res.SimPS)
	}
	if staleN > 0 {
		res.StaleMeanEpochs = float64(staleSum) / float64(staleN)
	}
}
