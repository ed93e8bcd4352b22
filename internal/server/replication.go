package server

import (
	"fmt"

	"libcrpm/internal/measure"
	"libcrpm/internal/obs"
	"libcrpm/internal/pds"
	"libcrpm/internal/replica"
	"libcrpm/internal/workload"
)

// shipBytesBounds buckets per-cut delta payloads (bytes, 4 KB up).
var shipBytesBounds = obs.ExpBounds(4096, 4, 12)

// ReadAudit records one routed read (Config.Audit): which replica served
// it, the view epoch it observed, and whether the SLA degraded. Property
// tests replay per-client histories from these.
type ReadAudit struct {
	Seq    int
	Client int
	Shard  int
	// SLA is the client's SLA in replica.Parse syntax.
	SLA string
	// Sec is the serving secondary, -1 for the primary.
	Sec       int
	View      uint64
	Staleness uint64
	Unmet     bool
}

// WriteAudit records one primary mutation (Config.Audit) and the cut
// epoch that makes it durable — the floor any later read-my-writes read
// by the same client must observe.
type WriteAudit struct {
	Seq         int
	Client      int
	Shard       int
	CommitEpoch uint64
}

// initReplicas builds a shard's replica group and the volatile SLA-layer
// bookkeeping. Secondary devices run their own clocks; nothing here
// touches the primary's device, so its primitive stream — and with it
// every crash-injection point — is independent of the replica count.
func (s *Service) initReplicas(sh *shard) error {
	g, err := replica.NewGroup(sh.id, replica.Config{
		Replicas:   s.cfg.Replicas,
		Opts:       s.opts,
		DeviceSize: s.deviceSize,
		Trace:      s.cfg.Trace,
	})
	if err != nil {
		return err
	}
	sh.reps = g
	sh.secKV = make([]pds.KV, g.Len())
	sh.cstate = make([]replica.ClientState, s.cfg.Clients)
	sh.readLat = measure.NewHistogram(latencyBounds)
	sh.stale = sh.rec.Histogram("replica/staleness_epochs", obs.StalenessBounds)
	return nil
}

// captureDelta snapshots the epoch's dirty segment images at the cut
// boundary. Pure DRAM copies off the working image: no device primitives
// run and no simulated time passes, so crash points and clocks are
// exactly those of an unreplicated run.
func (sh *shard) captureDelta() *replica.Delta {
	l := sh.core.Layout()
	segs := sh.core.DirtySegments()
	heapImg := sh.core.Bytes()
	d := &replica.Delta{
		Epoch:  sh.core.CommittedEpoch() + 1,
		Segs:   segs,
		Images: make([][]byte, len(segs)),
	}
	for i, seg := range segs {
		img := make([]byte, l.SegSize)
		copy(img, heapImg[seg*l.SegSize:(seg+1)*l.SegSize])
		d.Images[i] = img
		d.Bytes += l.SegSize
	}
	return d
}

// shipDelta pushes a committed cut's delta to the shard's secondaries.
func (sh *shard) shipDelta(d *replica.Delta) {
	sh.reps.Ship(d, sh.clock.NowPS())
	sh.rec.Observe("replica/ship_bytes", shipBytesBounds, int64(d.Bytes))
}

// secondaryKV lazily opens a read handle over a secondary's container.
// Valid once the replica has installed the populate cut (the optimizer
// never routes to a replica before that); the handle reads every node
// through heap offsets, so later delta installs never invalidate it.
func (sh *shard) secondaryKV(i int) (pds.KV, error) {
	if sh.secKV[i] != nil {
		return sh.secKV[i], nil
	}
	_, kv, err := openKV(sh.reps.Sec(i).Container(), sh.ds)
	if err != nil {
		return nil, fmt.Errorf("server: shard %d replica %d: %w", sh.id, i, err)
	}
	sh.secKV[i] = kv
	return kv, nil
}

// applySLA executes one request under replication. Mutations run on the
// primary exactly as without replication, stamped with the cut epoch that
// will make them durable; reads go through the Pileus optimizer and may
// be served — and verified online — by a secondary.
func (s *Service) applySLA(sh *shard, seq int, op workload.Op) error {
	client := seq % s.cfg.Clients
	cs := &sh.cstate[client]
	switch op.Kind {
	case workload.OpRead, workload.OpScan:
		return s.applyRead(sh, seq, client, cs, op)
	}
	next := sh.ctr.NextWriteEpoch()
	if err := sh.apply(seq, op); err != nil {
		return err
	}
	cs.WriteEpoch = next
	if op.Kind == workload.OpRMW {
		// The read-modify-write observed the primary's live state, which
		// commits no later than the cut the write rides.
		cs.ObserveRead(next)
	}
	if s.cfg.Audit {
		sh.writes = append(sh.writes, WriteAudit{Seq: seq, Client: client, Shard: sh.id, CommitEpoch: next})
	}
	return nil
}

// applyRead routes one read by the client's SLA, serves it, and verifies
// any secondary-served value against the cut snapshot of the view the
// replica claims. Reads carry no durability, so they acknowledge
// immediately even while a cut is group-committing writes.
func (s *Service) applyRead(sh *shard, seq, client int, cs *replica.ClientState, op workload.Op) error {
	sla := s.cfg.SLAs[client%len(s.cfg.SLAs)]
	committed := sh.ctr.CommittedEpoch()
	live := sh.ctr.NextWriteEpoch()
	plan := sh.reps.Plan(sla, *cs, committed, live)
	if plan.Sec >= 0 && op.Kind == workload.OpScan {
		kv, err := sh.secondaryKV(plan.Sec)
		if err != nil {
			return err
		}
		if pds.Supports(kv, pds.OpScan) != nil {
			// The replica's backend cannot execute scans faithfully; this
			// is a capability gap, not an SLA miss — serve the primary.
			plan = sh.reps.Plan(replica.SLA{Level: replica.Strong}, *cs, committed, live)
		}
	}
	var lat int64
	if plan.Sec < 0 {
		t0 := sh.clock.NowPS()
		switch op.Kind {
		case workload.OpRead:
			sh.kv.Get(op.Key)
		case workload.OpScan:
			sh.kv.Scan(op.Key, op.ScanLen)
		}
		lat = (sh.clock.NowPS() - t0) + plan.RTTPS
	} else {
		kv, err := sh.secondaryKV(plan.Sec)
		if err != nil {
			return err
		}
		clk := sh.reps.Sec(plan.Sec).Clock()
		t0 := clk.NowPS()
		switch op.Kind {
		case workload.OpRead:
			v, ok := kv.Get(op.Key)
			sh.checkSecondaryRead(plan, op.Key, v, ok)
		case workload.OpScan:
			kv.Scan(op.Key, op.ScanLen)
		}
		lat = (clk.NowPS() - t0) + plan.RTTPS
		sh.secReads++
		sh.stale.Observe(int64(plan.Staleness))
		if sla.Level == replica.BoundedStaleness && plan.Staleness > sla.Bound {
			sh.repViol = append(sh.repViol, fmt.Sprintf(
				"read seq %d: staleness %d exceeds bound %d", seq, plan.Staleness, sla.Bound))
		}
	}
	if plan.Unmet {
		sh.unmetReads++
	}
	cs.ObserveRead(plan.View)
	sh.readLat.Observe(lat)
	// No arrival schedule to charge against: the open-loop rig excludes
	// replication (ErrMeasureReplicas).
	sh.ack(pendAck{kind: op.Kind, seq: seq}, lat)
	if s.cfg.Audit {
		sh.reads = append(sh.reads, ReadAudit{
			Seq: seq, Client: client, Shard: sh.id, SLA: sla.Name(),
			Sec: plan.Sec, View: plan.View, Staleness: plan.Staleness, Unmet: plan.Unmet,
		})
	}
	return nil
}

// checkSecondaryRead verifies a secondary-served value against the cut
// snapshot of the view the plan claims — the exactness half of the SLA
// guarantees: a view of epoch e means exactly cut e's state, never a torn
// or in-between image.
func (sh *shard) checkSecondaryRead(plan replica.Plan, key, v uint64, ok bool) {
	if !sh.shadow.retains(plan.View) {
		sh.repViol = append(sh.repViol, fmt.Sprintf(
			"replica %d served view %d with no retained snapshot", plan.Sec, plan.View))
		return
	}
	wv, wok := sh.shadow.at(plan.View, key)
	if ok != wok || (ok && v != wv) {
		sh.repViol = append(sh.repViol, fmt.Sprintf(
			"replica %d view %d key %d: got %d,%v want %d,%v", plan.Sec, plan.View, key, v, ok, wv, wok))
	}
}

// verifyReplicas runs the end-of-run replica checks: online verification
// failures collected while serving, plus a full comparison of every
// quiesced secondary against the snapshot of its installed epoch.
func (sh *shard) verifyReplicas() []string {
	if sh.reps == nil {
		return nil
	}
	bad := append([]string(nil), sh.repViol...)
	for i := 0; i < sh.reps.Len(); i++ {
		sec := sh.reps.Sec(i)
		if sec.Disabled() {
			continue
		}
		if sec.Installed() == 0 {
			bad = append(bad, fmt.Sprintf("replica %d never installed a cut", i))
			continue
		}
		want, have := sh.shadow.snapAt(sec.Installed())
		if !have {
			bad = append(bad, fmt.Sprintf("replica %d at epoch %d: no retained snapshot", i, sec.Installed()))
			continue
		}
		kv, err := sh.secondaryKV(i)
		if err != nil {
			bad = append(bad, err.Error())
			continue
		}
		for _, d := range verifyKV(kv, want) {
			bad = append(bad, fmt.Sprintf("replica %d: %s", i, d))
		}
	}
	return bad
}

// adoptReplica flips the shard's serving node to a promoted secondary:
// the replica's clock and container become the shard's. The old device is
// lost with the crashed node and never touched again.
func (sh *shard) adoptReplica(sec *replica.Secondary) {
	sh.clock = sec.Clock()
	sh.ctr = sec.Container()
	sh.core = sec.Container()
}
