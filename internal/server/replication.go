package server

import (
	"fmt"

	"libcrpm/internal/obs"
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
	sh.secKV = make([]storeKV, g.Len())
	sh.cstate = make([]replica.ClientState, s.cfg.Clients)
	sh.slas = s.cfg.SLAs
	sh.shadow.sessions = make([]session, s.cfg.Clients)
	sh.readLat = obs.NewHistogram(latencyBounds)
	sh.stale = obs.NewHistogram(obs.StalenessBounds)
	return nil
}

// secondaryKV lazily opens a read handle over a secondary's container.
// Valid once the replica has installed the populate cut (the optimizer
// never routes to a replica before that); the handle reads every node
// through heap offsets, so later delta installs never invalidate it.
func (sh *shard) secondaryKV(i int) (storeKV, error) {
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

// routeRead serves one read under replication, a branch of apply's read
// arm: the client's SLA picks the node (the Pileus optimizer), the read is
// verified online — the routing against the client's session
// (oracle.read), a secondary-served value against the cut snapshot of the
// view the replica claims — and acknowledged at once, the round trip plus
// the serving node's work after its dispatch. Reads carry no durability, so
// none waits for a cut's group commit.
func (sh *shard) routeRead(p pendAck, op workload.Op) error {
	client := p.seq % len(sh.cstate)
	cs := &sh.cstate[client]
	sla := sh.slas[client%len(sh.slas)]
	committed := sh.ctr.CommittedEpoch()
	plan := sh.reps.Plan(sla, *cs, committed, sh.ctr.NextWriteEpoch())
	kv, clk := sh.kv, sh.clock
	if plan.Sec >= 0 {
		var err error
		if kv, err = sh.secondaryKV(plan.Sec); err != nil {
			return err
		}
		clk = sh.reps.Sec(plan.Sec).Clock()
		sh.secReads++
		sh.stale.Observe(int64(plan.Staleness))
	}
	t0 := clk.NowPS()
	switch op.Kind {
	case workload.OpRead:
		v, ok := kv.Get(op.Key)
		if plan.Sec >= 0 {
			sh.checkSecondaryRead(plan, op.Key, v, ok)
		}
	case workload.OpScan:
		kv.Scan(op.Key, op.ScanLen)
	}
	lat := clk.NowPS() - t0 + plan.RTTPS
	if bad := sh.shadow.read(client, sla, plan.Sec, plan.View, committed); bad != "" {
		sh.repViol = append(sh.repViol, fmt.Sprintf("read seq %d, client %d (%s): %s", p.seq, client, sla.Name(), bad))
	}
	if plan.Unmet {
		sh.unmetReads++
	}
	cs.ObserveRead(plan.View)
	sh.readLat.Observe(lat)
	sh.ack(p, lat)
	return nil
}

// stampWrite records an applied write in its client's session: the epoch
// whose cut makes it durable, and for a read-modify-write the read of the
// primary's live state, which commits no later than that cut.
func (sh *shard) stampWrite(seq int, kind workload.OpKind) {
	client := seq % len(sh.cstate)
	cs := &sh.cstate[client]
	cs.WriteEpoch = sh.ctr.NextWriteEpoch()
	if kind == workload.OpRMW {
		cs.ObserveRead(cs.WriteEpoch)
	}
	sh.shadow.wrote(client, kind == workload.OpRMW)
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
		for _, d := range verifyKV(kv, want, nil) {
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
