package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"libcrpm/internal/core"
	"libcrpm/internal/mpi"
	"libcrpm/internal/replica"
	"libcrpm/internal/workload"
)

// replCfg is smallCfg with two secondaries per shard on the read-heavy
// mix, so the optimizer has real routing choices to make.
func replCfg() Config {
	cfg := smallCfg()
	cfg.Replicas = 2
	cfg.Mix = workload.YCSBB
	return cfg
}

// TestReplicatedCleanRun: a replicated run serves every op, routes a
// meaningful share of reads to secondaries, and both the primary shadow
// check and the per-secondary cut-image checks pass.
func TestReplicatedCleanRun(t *testing.T) {
	res := mustRun(t, replCfg())
	if !res.OK() {
		t.Fatalf("%d violations, first: %v", len(res.Violations), res.Violations[0])
	}
	if res.TotalOps != uint64(replCfg().Ops) {
		t.Fatalf("acked %d of %d ops", res.TotalOps, replCfg().Ops)
	}
	if res.SecReads == 0 {
		t.Fatal("no reads were served by secondaries")
	}
	var perShard uint64
	for _, st := range res.Shards {
		perShard += st.SecReads
	}
	if perShard != res.SecReads {
		t.Fatalf("shard SecReads sum %d != aggregate %d", perShard, res.SecReads)
	}
}

// TestReplicatedDeterminism: the replicated Result — routing decisions,
// staleness accounting — is byte-identical across verification parallelism
// and repeated runs.
func TestReplicatedDeterminism(t *testing.T) {
	base := replCfg()
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

// TestUnreplicatedRunHasNoReplicaArtifacts: with Replicas zero, every
// replication output is absent — the run takes only the pre-replication
// code paths.
func TestUnreplicatedRunHasNoReplicaArtifacts(t *testing.T) {
	res := mustRun(t, smallCfg())
	if !res.OK() {
		t.Fatal(res.Violations[0])
	}
	if res.SecReads != 0 || res.UnmetReads != 0 || res.StaleMeanEpochs != 0 {
		t.Fatalf("replica accounting leaked into an unreplicated run: %+v", res)
	}
	if res.FailedOver {
		t.Fatalf("replica artifacts leaked into an unreplicated run: %+v", res)
	}
	for _, st := range res.Shards {
		if st.Reads != 0 || st.SecReads != 0 || st.UnmetReads != 0 || st.StaleMeanEpochs != 0 || st.P99ReadLatPS != 0 {
			t.Fatalf("shard %d has replica stats in an unreplicated run: %+v", st.Shard, st)
		}
	}
}

// routedReads sums the shards' SLA-routed read counts.
func routedReads(res *Result) (n uint64) {
	for _, st := range res.Shards {
		n += st.Reads
	}
	return n
}

// TestSLAProperties: the oracle checks every routed read against its SLA's
// guarantee as it is served (oracle.read) — strong reads never leave the
// primary, read-my-writes views cover the client's last write, monotonic
// views never regress, bounded-staleness views stay within the bound — and a
// run under each level breaks none of them. Read-my-writes, bounded and
// eventual reads reach secondaries, so their checks do not pass vacuously.
// Strong reads never do, and neither do monotonic ones: a client's first
// read lands on the primary, whose view is the open epoch, and no secondary
// has installed that epoch by the time the client reads again.
func TestSLAProperties(t *testing.T) {
	for _, sla := range replica.Mix() {
		cfg := replCfg()
		cfg.Replicas = 3
		cfg.SLAs = []replica.SLA{sla}
		res := mustRun(t, cfg)
		if !res.OK() {
			t.Fatalf("%s: %d violations, first: %v", sla.Name(), len(res.Violations), res.Violations[0])
		}
		if routedReads(res) == 0 {
			t.Fatalf("%s: no reads routed", sla.Name())
		}
		pinned := sla.Level == replica.Strong || sla.Level == replica.Monotonic
		if pinned != (res.SecReads == 0) {
			t.Fatalf("%s: %d reads served by secondaries", sla.Name(), res.SecReads)
		}
	}
}

// TestSLALatencyUnmetDegradesToPrimary: an unmeetable latency target
// degrades every read to the primary, flagged — never to a cheaper,
// less-consistent replica.
func TestSLALatencyUnmetDegradesToPrimary(t *testing.T) {
	cfg := replCfg()
	cfg.SLAs = []replica.SLA{{Level: replica.Eventual, LatencyPS: 1}}
	res := mustRun(t, cfg)
	if !res.OK() {
		t.Fatal(res.Violations[0])
	}
	if reads := routedReads(res); reads == 0 || res.SecReads != 0 || res.UnmetReads != reads {
		t.Fatalf("%d reads: %d on secondaries, %d unmet; want every one unmet on the primary", reads, res.SecReads, res.UnmetReads)
	}
}

// TestReplicatedScanFallsBackToPrimary: the scan-heavy mix under
// replication stays consistent, its scans routed by SLA like point reads.
func TestReplicatedScanFallsBackToPrimary(t *testing.T) {
	cfg := replCfg()
	cfg.Mix = workload.YCSBE
	cfg.Ops = 3000
	res := mustRun(t, cfg)
	if !res.OK() {
		t.Fatal(res.Violations[0])
	}
}

// TestFailoverPromotesReplica is the kill-primary contract: crashes
// strided across two shards' serving spans must each fail over to the
// most-current secondary, flip routing at a cut boundary, land every
// survivor on the same epoch, and lose or double-apply nothing that was
// acked across a cut.
func TestFailoverPromotesReplica(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeDefault, core.ModeBuffered} {
		cfg := replCfg()
		cfg.Ops = 3000
		cfg.Mode = mode
		ref := newService(t, cfg)
		if _, err := ref.Run(); err != nil {
			t.Fatal(err)
		}
		spans := ref.PrimitiveSpans()
		for _, shard := range []int{0, 2} {
			base, end := spans[shard][0], spans[shard][1]
			if end <= base {
				t.Fatalf("mode %v shard %d: empty serving span [%d,%d)", mode, shard, base, end)
			}
			for _, at := range []int64{base + 1, base + (end-base)/3, base + (end-base)/2, end - 1} {
				ccfg := cfg
				ccfg.Crash = &CrashSpec{Shard: shard, At: at}
				res := mustRun(t, ccfg)
				if res.CrashedShard != shard {
					t.Fatalf("mode %v: crash at %d reported on shard %d, want %d", mode, at, res.CrashedShard, shard)
				}
				if !res.FailedOver || !res.Recovered {
					t.Fatalf("mode %v shard %d at %d: no failover: %v", mode, shard, at, res.Violations)
				}
				if !res.OK() {
					t.Fatalf("mode %v shard %d at %d: %d violations, first: %v",
						mode, shard, at, len(res.Violations), res.Violations[0])
				}
				if res.PromotedEpoch != res.RecoveredEpoch {
					t.Fatalf("mode %v shard %d at %d: promoted to epoch %d, world landed on %d",
						mode, shard, at, res.PromotedEpoch, res.RecoveredEpoch)
				}
				if res.PromotedReplica < 0 || res.PromotedReplica >= cfg.Replicas {
					t.Fatalf("mode %v shard %d at %d: promoted replica %d out of range", mode, shard, at, res.PromotedReplica)
				}
				if res.RecoveredEpoch < 1 {
					t.Fatalf("mode %v shard %d at %d: landed on epoch %d before the populate cut",
						mode, shard, at, res.RecoveredEpoch)
				}
			}
		}
	}
}

// TestFailoverRoutingFlip: after a failover exactly the crashed shard
// serves from the promoted replica's container, one epoch past the landing
// epoch (recovery's liveness probe takes a cut); every other shard still
// serves from its own device.
func TestFailoverRoutingFlip(t *testing.T) {
	cfg := replCfg()
	cfg.Ops = 2000
	svc := newService(t, cfg)
	if _, err := svc.Run(); err != nil {
		t.Fatal(err)
	}
	spans := svc.PrimitiveSpans()
	at := spans[1][0] + (spans[1][1]-spans[1][0])/2
	cfg.Crash = &CrashSpec{Shard: 1, At: at}
	svc = newService(t, cfg)
	res, err := svc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() || !res.FailedOver {
		t.Fatalf("failover failed: %+v", res.Violations)
	}
	promoted := svc.shards[1].reps.Sec(res.PromotedReplica).Container()
	if svc.shards[1].ctr != CutBackend(promoted) || promoted.CommittedEpoch() != res.PromotedEpoch+1 {
		t.Fatalf("shard 1 serves from %T at epoch %d, want replica %d's container at %d",
			svc.shards[1].ctr, svc.shards[1].ctr.CommittedEpoch(), res.PromotedReplica, res.PromotedEpoch+1)
	}
	for _, sh := range []int{0, 2, 3} {
		if svc.shards[sh].ctr.Device() != svc.shards[sh].dev {
			t.Fatalf("healthy shard %d no longer serves from its own device", sh)
		}
	}
}

// TestCrashedRunReportsReplicaReads: a read a secondary served wrong before a
// kill-primary crash is reported as a replica violation, as on a clean run.
// Wrong values are planted into shard 0's first secondary at the first
// batch boundary after its first install, on shard 0's own goroutine
// (Progress); the crash lands near the end of shard 0's serving span.
func TestCrashedRunReportsReplicaReads(t *testing.T) {
	cfg := replCfg()
	cfg.Ops = 3000
	cfg.SLAs = []replica.SLA{{Level: replica.Eventual}}
	ref := newService(t, cfg)
	if _, err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	span := ref.PrimitiveSpans()[0]
	cfg.Crash = &CrashSpec{Shard: 0, At: span[1] - 1}
	svc := newService(t, cfg)
	planted := false
	svc.cfg.Progress = func(int, int) {
		if planted || svc.shards[0].reps.Sec(0).Installed() == 0 {
			return
		}
		planted = true
		kv, err := svc.shards[0].secondaryKV(0)
		if err != nil {
			t.Error(err)
			return
		}
		for _, p := range kv.Scan(0, kv.Len()) {
			if err := kv.Put(p.Key, p.Value+1); err != nil {
				t.Error(err)
				return
			}
		}
	}
	res, err := svc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !planted || !res.FailedOver {
		t.Fatalf("planted %v, failed over %v", planted, res.FailedOver)
	}
	for _, v := range res.Violations {
		if v.Shard == 0 && v.Stage == "replica" {
			return
		}
	}
	t.Fatalf("no replica violation on shard 0 among %d: %v", len(res.Violations), res.Violations)
}

// TestOpenLoopKillLandsAmidRequests: an open-loop run's serving span opens
// with the populate's copy-on-write, drained ahead of the first arrival, so
// its middle can fall before the shard has served one request. A kill at the
// middle of its request span, as crpmserve -killprimary aims, lands after
// the victim has served some.
func TestOpenLoopKillLandsAmidRequests(t *testing.T) {
	cfg := measuredCfg(2e6)
	cfg.Mix, cfg.Replicas = workload.YCSBB, 2
	ref := newService(t, cfg)
	if _, err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	const victim = 1
	all, req := ref.PrimitiveSpans()[victim], ref.RequestSpans()[victim]
	if req[0] <= all[0] || req[1] != all[1] {
		t.Fatalf("request span %v does not start past the drain inside serving span %v", req, all)
	}
	cfg.Crash = &CrashSpec{Shard: victim, At: req[0] + (req[1]-req[0])/2}
	res := mustRun(t, cfg)
	if !res.OK() || !res.FailedOver {
		t.Fatalf("failover failed: %+v", res.Violations)
	}
	if ops := res.Shards[victim].Ops; ops == 0 {
		t.Fatalf("shard %d was killed at primitive %d before serving a request", victim, cfg.Crash.At)
	}
}

// TestFailoverDeterminism: the same kill-primary point yields the same
// Result — promotion choice included — on every run.
func TestFailoverDeterminism(t *testing.T) {
	cfg := replCfg()
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
		t.Fatalf("failover runs differ:\n%+v\nvs\n%+v", a, b)
	}
	if !a.FailedOver {
		t.Fatal("crash point did not exercise failover")
	}
}

// TestFailoverDuringIncrementalCut: kill-primary points under the pause
// policy land inside in-flight cuts; the aborted cut's delta must never
// reach a secondary, and failover still converges.
func TestFailoverDuringIncrementalCut(t *testing.T) {
	cfg := incCfg()
	cfg.Replicas = 2
	cfg.Ops = 3000
	ref := newService(t, cfg)
	if _, err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	spans := ref.PrimitiveSpans()
	for _, shard := range []int{0, 2} {
		base, end := spans[shard][0], spans[shard][1]
		for _, at := range []int64{base + 1, base + (end-base)/3, base + (end-base)/2, base + 2*(end-base)/3, end - 1} {
			ccfg := cfg
			ccfg.Crash = &CrashSpec{Shard: shard, At: at}
			res := mustRun(t, ccfg)
			if !res.FailedOver || !res.Recovered {
				t.Fatalf("shard %d at %d: no failover: %v", shard, at, res.Violations)
			}
			if !res.OK() {
				t.Fatalf("shard %d at %d: %d violations, first: %v",
					shard, at, len(res.Violations), res.Violations[0])
			}
		}
	}
}

// TestReplicatedTraceTracks: tracing a replicated run adds one track per
// secondary alongside each shard's.
func TestReplicatedTraceTracks(t *testing.T) {
	cfg := replCfg()
	cfg.Ops = 1500
	cfg.Trace = true
	res := mustRun(t, cfg)
	if !res.OK() {
		t.Fatal(res.Violations[0])
	}
	want := cfg.Shards * (1 + cfg.Replicas)
	if res.Trace == nil || len(res.Trace.Tracks) != want {
		t.Fatalf("trace has %d tracks, want %d", len(res.Trace.Tracks), want)
	}
}

// TestOpenLoopReplicated: open loop × replicas is a product like any other.
// Under stop-the-world and incremental cuts, with and without a killed
// primary, every run verifies and reports the same bytes at any Parallel;
// and every read, routed to a primary or a secondary, is booked from its
// intended arrival: the open track's read count is the stream's measured
// reads.
func TestOpenLoopReplicated(t *testing.T) {
	for _, pol := range []struct {
		name string
		p    Policy
	}{{"stw", OpsPolicy{Every: 2048}}, {"pause", NewPausePolicy(2 * time.Microsecond)}} {
		for _, kill := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/kill=%v", pol.name, kill), func(t *testing.T) {
				cfg := measuredCfg(2e6)
				cfg.Replicas, cfg.Mix, cfg.Policy = 2, workload.YCSBB, pol.p
				if kill {
					ref := newService(t, cfg)
					if _, err := ref.Run(); err != nil {
						t.Fatal(err)
					}
					// Late in the span, so requests are served before the
					// kill: the span opens with the populated segments'
					// copy-on-write, drained ahead of the first arrival, and
					// YCSB-B's reads add no primitive.
					span := ref.PrimitiveSpans()[1]
					cfg.Crash = &CrashSpec{Shard: 1, At: span[0] + (span[1]-span[0])*9/10}
				}
				var js [2][]byte
				var res *Result
				for i, par := range []int{1, 8} {
					cfg.Parallel = par
					res = mustRun(t, cfg)
					if !res.OK() {
						t.Fatalf("%d violations, first: %v", len(res.Violations), res.Violations[0])
					}
					if res.FailedOver != kill {
						t.Fatalf("failed over %v, want %v", res.FailedOver, kill)
					}
					var err error
					if js[i], err = json.Marshal(res); err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(js[0], js[1]) {
					t.Fatal("Parallel 1 and 8 report different results")
				}
				if res.SecReads == 0 {
					t.Fatal("no read served by a secondary")
				}
				if kill {
					return
				}
				gens := newService(t, cfg).newGenerators()
				want := int64(0)
				for seq := 0; seq < cfg.Ops; seq++ {
					if op := gens[seq%len(gens)].Next(); op.Kind == workload.OpRead && seq >= cfg.Measure.WarmupOps {
						want++
					}
				}
				got := int64(-1)
				for _, k := range res.Measure.Open {
					if k.Kind == workload.OpRead.String() {
						got = k.N
					}
				}
				if got != want {
					t.Fatalf("open track booked %d reads, the stream measures %d", got, want)
				}
			})
		}
	}
}

// TestCutFinishesDeferredCoWBeforeCapture: a replicated cut that finds a
// deferred copy-on-write replay unfinished finishes it before it captures
// the delta — until then the replay's staged stores are in no dirty set
// (core.EpochRuns refuses) — so the delta carries them and the secondaries
// install the cut's exact image.
func TestCutFinishesDeferredCoWBeforeCapture(t *testing.T) {
	cfg := replCfg()
	cfg.Shards, cfg.Clients = 1, 1
	s := newService(t, cfg)
	s.shards = make([]*shard, 1)
	errs := mpi.NewWorld(1).Run(func(c *mpi.Comm) {
		s.runRank(c, func(sh *shard) error {
			if err := s.initReplicas(sh); err != nil {
				return err
			}
			for k := uint64(0); k < 64; k++ {
				if err := sh.kv.Put(k, k); err != nil {
					return err
				}
				sh.shadow.put(k, k)
			}
			if err := s.cutThrough(c, sh, true); err != nil {
				return err
			}
			if !sh.ctr.DeferCoW(foreverPS) {
				return errors.New("populate cut left no copy-on-write to defer")
			}
			if err := sh.kv.Put(7, 70); err != nil {
				return err
			}
			sh.shadow.put(7, 70)
			if err := s.cutThrough(c, sh, true); err != nil {
				return err
			}
			if err := sh.reps.DeliverAll(); err != nil {
				return err
			}
			if bad := sh.verifyReplicas(false); len(bad) > 0 {
				return errors.New(bad[0])
			}
			return nil
		})
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
