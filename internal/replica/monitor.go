package replica

// ClientState is the consistency bookkeeping a session layer keeps per
// (client, shard): which epoch the client's latest write to the shard
// commits in, and the newest view epoch the client has observed there.
// Both only ever grow; together they are exactly the state Pileus needs
// to evaluate read-my-writes and monotonic-reads against any replica.
type ClientState struct {
	// WriteEpoch is the epoch the client's most recent write to this
	// shard commits in. A replica whose view has reached it holds every
	// write the client ever made here.
	WriteEpoch uint64
	// ReadEpoch is the newest view epoch the client has observed on this
	// shard; monotonic reads must never go below it.
	ReadEpoch uint64
}

// ObserveRead folds a served read's view into the monotonic floor.
func (cs *ClientState) ObserveRead(view uint64) {
	if view > cs.ReadEpoch {
		cs.ReadEpoch = view
	}
}

// Plan is the optimizer's routing decision for one read.
type Plan struct {
	// Sec is the chosen secondary's id, or -1 for the primary.
	Sec int
	// View is the epoch of the state the read observes: the chosen
	// secondary's installed cut, or committed+1 — the live, still-open
	// epoch — on the primary.
	View uint64
	// Staleness is how many committed epochs the view trails the primary
	// (always 0 on the primary).
	Staleness uint64
	// RTTPS is the simulated read round-trip to the chosen replica.
	RTTPS int64
	// Unmet reports that no replica satisfied the SLA's consistency and
	// latency together, so the read degraded to the primary — always
	// consistent, maybe slow — and the caller surfaces ErrSLAUnmet.
	Unmet bool
}

// Plan routes one read. Among the replicas whose view satisfies the SLA's
// consistency level — the primary always does — it picks the cheapest by
// simulated RTT that also meets the latency target. If consistency can
// only be had too slowly, the read is served from the primary and flagged
// Unmet: correctness is never traded away for latency.
//
// committed is the shard's current committed epoch; live is the epoch a
// write issued now would commit in (normally committed+1, one further
// while an in-flight incremental cut diverts writes past its boundary).
// A secondary's view is its installed cut; the primary's view is live,
// which by construction contains every write any client has issued.
func (g *Group) Plan(sla SLA, cs ClientState, committed, live uint64) Plan {
	primary := Plan{Sec: -1, View: live, RTTPS: primaryReadPS}
	best, bestOK := primary, sla.LatencyPS == 0 || primary.RTTPS <= sla.LatencyPS
	if sla.Level != Strong {
		for _, s := range g.secs {
			if s.disabled || s.installed == 0 {
				continue
			}
			view := s.installed
			var stale uint64
			if committed > view {
				stale = committed - view
			}
			switch sla.Level {
			case ReadMyWrites:
				if view < cs.WriteEpoch {
					continue
				}
			case Monotonic:
				if view < cs.ReadEpoch {
					continue
				}
			case BoundedStaleness:
				if stale > sla.Bound {
					continue
				}
			}
			cand := Plan{Sec: s.id, View: view, Staleness: stale, RTTPS: s.rttPS}
			if ok := sla.LatencyPS == 0 || cand.RTTPS <= sla.LatencyPS; ok && (!bestOK || cand.RTTPS < best.RTTPS) {
				best, bestOK = cand, true
			}
		}
	}
	if bestOK {
		return best
	}
	primary.Unmet = true
	return primary
}
