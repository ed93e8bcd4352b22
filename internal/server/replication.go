package server

import (
	"fmt"

	"libcrpm/internal/obs"
	"libcrpm/internal/pds"
	"libcrpm/internal/replica"
	"libcrpm/internal/workload"
)

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
	for i := 0; i < g.Len(); i++ {
		s.mapped(g.Sec(i).Container().Device())
	}
	sh.reps = g
	sh.secKV = make([]pds.KV, g.Len())
	sh.cstate = make([]replica.ClientState, s.cfg.Clients)
	sh.shadow.sessions = make([]session, s.cfg.Clients)
	sh.readLat = obs.NewHistogram(latencyBounds)
	sh.stale = obs.NewHistogram(obs.StalenessBounds)
	return nil
}

// secondaryKV lazily opens a read handle over a secondary's container.
// Valid once the replica has installed the populate cut (the optimizer
// never routes to a replica before that); the handle reads every node
// through heap offsets, so later delta installs never invalidate it.
func (sh *shard) secondaryKV(i int) (pds.KV, error) {
	if sh.secKV[i] != nil {
		return sh.secKV[i], nil
	}
	kv, err := openKV(sh.reps.Sec(i).Container(), sh.ds)
	if err != nil {
		return nil, fmt.Errorf("server: shard %d replica %d: %w", sh.id, i, err)
	}
	sh.secKV[i] = kv
	return kv, nil
}

// applySLA executes one request under replication. Mutations run on the
// primary exactly as without replication, stamped with the cut epoch that
// will make them durable; reads go through the Pileus optimizer, may be
// served by a secondary, and are verified online either way.
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
	sh.shadow.wrote(client, op.Kind == workload.OpRMW)
	return nil
}

// applyRead routes one read by the client's SLA, serves it, and verifies
// it: the routing against the client's session (oracle.read), any
// secondary-served value against the cut snapshot of the view the replica
// claims. Reads carry no durability, so they acknowledge immediately even
// while a cut is group-committing writes.
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
	}
	if bad := sh.shadow.read(client, sla, plan.Sec, plan.View, committed); bad != "" {
		sh.repViol = append(sh.repViol, fmt.Sprintf("read seq %d, client %d (%s): %s", seq, client, sla.Name(), bad))
	}
	if plan.Unmet {
		sh.unmetReads++
	}
	cs.ObserveRead(plan.View)
	sh.readLat.Observe(lat)
	// No arrival schedule to charge against: the open-loop rig excludes
	// replication (ErrMeasureReplicas).
	sh.ack(pendAck{kind: op.Kind, seq: seq}, lat)
	return nil
}

// checkSecondaryRead verifies a secondary-served value against the cut
// snapshot of the view the plan claims — the exactness half of the SLA
// guarantees: a view of epoch e means exactly cut e's state, never a torn
// or in-between image.
func (sh *shard) checkSecondaryRead(plan replica.Plan, key, v uint64, ok bool) {
	img, retained := sh.shadow.at(plan.View)
	if !retained {
		sh.repViol = append(sh.repViol, fmt.Sprintf(
			"replica %d served view %d with no retained snapshot", plan.Sec, plan.View))
		return
	}
	wv, wok := img.get(key)
	if ok != wok || (ok && v != wv) {
		sh.repViol = append(sh.repViol, fmt.Sprintf(
			"replica %d view %d key %d: got %d,%v want %d,%v", plan.Sec, plan.View, key, v, ok, wv, wok))
	}
}

// verifyReplicas is the end-of-run replica check: every secondary against
// the oracle's image of its installed epoch. After a crash a secondary may
// not have installed a cut yet, and the promoted one is the shard's own
// container now, checked as the shard.
func (sh *shard) verifyReplicas(recovered bool) []string {
	if sh.reps == nil {
		return nil
	}
	var bad []string
	for i := 0; i < sh.reps.Len(); i++ {
		sec := sh.reps.Sec(i)
		if sec.Disabled() || sec.Container() == sh.core || (recovered && sec.Installed() == 0) {
			continue
		}
		if sec.Installed() == 0 {
			bad = append(bad, fmt.Sprintf("replica %d never installed a cut", i))
			continue
		}
		want, have := sh.shadow.at(sec.Installed())
		if !have {
			bad = append(bad, fmt.Sprintf("replica %d at epoch %d: no retained snapshot", i, sec.Installed()))
			continue
		}
		kv, err := sh.secondaryKV(i)
		if err != nil {
			bad = append(bad, err.Error())
			continue
		}
		for _, d := range verifyKV(dumpKV(kv), want, nil) {
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
