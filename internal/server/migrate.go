// Elastic resharding: checkpoint-seeded live shard migration over the
// consistent-hash ring (internal/ring).
//
// A migration moves one keyspan — a set of ring slots — from a source
// shard to a destination (a freshly spawned rank for a split, an existing
// rank for a move or merge) while the service keeps serving, with the
// ownership flip riding a coordinated cut so crash recovery always lands
// on a ring version consistent with every shard's recovered data.
//
// The protocol is a per-rank state machine whose transitions happen only at
// policy rounds, from globally agreed values, so every rank walks the
// identical transition sequence (the same determinism discipline as the
// cut policy). The bulk work between transitions — installing the snapshot,
// replaying the delta log, deleting the moved span — is not done at a
// boundary: it sits on the participating shard as one resumable work cursor
// that migQuantum retires a few items at a time, in otherwise idle time.
//
//	idle ──trigger at a cut boundary──▶ transfer:
//	    the source captures the span's checkpoint-consistent image (the
//	    acked state at the boundary, exactly what the next cut would
//	    commit for those keys), a split grows the world by one rank
//	    (mpi.Grow, provisioned from the snapshot), and the image "ships"
//	    under the same simulated latency model as replica delta shipping;
//	    once it has arrived the destination installs it in quanta, while
//	    the source keeps serving span traffic, logging every span
//	    mutation's result.
//	transfer ──destination finished (allreduced)──▶ catchup:
//	    the source publishes the delta log accumulated during the
//	    transfer, which ships and is replayed the same way.
//	catchup ──destination finished──▶ flipReady:
//	    waits for the next policy cut.
//	flipReady ──next coordinated cut──▶ cleanup:
//	    pre-flip, the source publishes the final residual delta (applied
//	    by the destination inside the committing epoch) and every rank
//	    flips its ring clone, binding the flip to the cut's global epoch;
//	    the cut's commit+barrier then publishes the flip atomically.
//	    Post-commit the source owes the deletion of the moved keys
//	    (next-epoch writes), again in quanta.
//	cleanup ──source finished──▶ idle:
//	    only now may the next migration start, and a merge source retires
//	    (mpi.Leave) at the cut after this one, once its deletions are
//	    durable.
//
// Crash anywhere in this pipeline is covered by the cut protocol: before
// the flip cut commits everywhere, recovery lands on a pre-flip epoch
// where the source still owns (and still stores) the span; from the flip
// cut on, the destination's committed image contains the span. The ring
// version for the landing epoch is replayed from the flip log.
package server

import (
	"errors"
	"fmt"
	"sort"

	"libcrpm/internal/measure"
	"libcrpm/internal/mpi"
	"libcrpm/internal/replica"
	"libcrpm/internal/ring"
	"libcrpm/internal/workload"
)

// ErrMigrateReplicas rejects Migrations/AutoSplit with Replicas > 0: a
// migrating span would need its replica chain re-homed mid-stream, which
// the delta-shipping layer does not model.
var ErrMigrateReplicas = errors.New("server: elastic resharding does not support replication (a moving span's replica chain is not re-homed)")

// MigrateKind selects an elastic-resharding operation.
type MigrateKind string

const (
	// MigrateSplit moves every other slot of Src to a freshly spawned
	// shard (the next dense id), halving Src's keyspace.
	MigrateSplit MigrateKind = "split"
	// MigrateMove moves every other slot of Src to the existing shard Dst.
	MigrateMove MigrateKind = "move"
	// MigrateMerge moves all of Src's slots to Dst; Src then retires from
	// the world once its post-flip deletions are durably committed.
	MigrateMerge MigrateKind = "merge"
)

// MigrateSpec schedules one live resharding operation. Operations run one
// at a time, in order; each triggers at the first cut boundary at or
// after AfterCuts committed cuts (the populate cut is cut 1).
type MigrateSpec struct {
	Kind MigrateKind
	// Src is the shard handing off the keyspan.
	Src int
	// Dst is the receiving shard for move and merge. A split ignores it:
	// the destination is always the next dense shard id.
	Dst int
	// AfterCuts gates the trigger; values below 1 are raised to 1.
	AfterCuts int
}

// AutoSplitSpec makes the service split its hottest shard on its own:
// at every cut boundary the per-shard applied-op counts since the last
// evaluation are allreduced, and the hottest live shard splits when its
// count exceeds HotFactor times the live-shard mean, until MaxShards live
// shards exist.
type AutoSplitSpec struct {
	// MaxShards caps the live shard count; zero disables autosplit.
	MaxShards int
	// HotFactor is the imbalance trigger threshold (default 2).
	HotFactor float64
}

// migPhase is the per-rank migration state; every rank holds the same
// phase at every global batch boundary.
type migPhase int

const (
	migIdle migPhase = iota
	migTransfer
	migCatchup
	migFlipReady
	migCleanup
)

// migQuantumItems is how many items (snapshot pairs, log entries, deletes)
// one migration quantum retires: a few microseconds of simulated work, the
// most an arrival can find itself queued behind. Measured flat from 8 up
// (DESIGN §15.4), so it is a constant, not a knob.
const migQuantumItems = 8

// shipLatencyPS is when a snapshot or delta log has arrived at the
// destination: the replica-shipping model over one hop, at 16 bytes per pair.
func shipLatencyPS(pairs int) int64 { return replica.ShipLatencyPS(0, pairs*16) }

// migEnt is one item of migration work: the result state of a span key —
// as captured in the snapshot, after an acked mutation on the source
// (value-result form, so replaying the log is idempotent and
// order-insensitive per key), or gone, for the source's post-flip cleanup.
type migEnt struct {
	key, val uint64
	del      bool
}

// migCursor is a shard's pending migration work, at most one list at a
// time: the snapshot to install or the delta log to replay (destination),
// the moved keys to delete (source). Resumable, so migQuantum can retire it
// a few items at a time wherever the shard finds idle time.
type migCursor struct {
	span    string // trace span name of this work's quanta
	items   []migEnt
	pos     int
	readyPS int64 // simulated arrival of the items (ship latency); 0 for local work
}

func (w *migCursor) pending() bool { return w.pos < len(w.items) }

// The trace span names of migration work, one per kind of item list.
const (
	spanMigInstall  = "mig-install"
	spanMigCatchup  = "mig-catchup"
	spanMigResidual = "mig-residual"
	spanMigDelete   = "mig-delete"
)

// retirePlan defers a merge source's departure to the cut after its
// post-flip deletions committed.
type retirePlan struct {
	shard    int
	whenCuts int
}

// RingFlip is one ownership flip, bound to the global cut epoch whose
// commit+barrier published it. Every rank records the identical sequence;
// recovery replays the prefix at or below the landing epoch over the boot
// ring to reconstruct the landing ring.
type RingFlip struct {
	Epoch uint64
	Src   int
	Dst   int
	Slots []int
}

// MigrationStat is one completed (or in-flight at run end, then forced to
// completion) resharding operation's deterministic summary, recorded by
// the source rank.
type MigrationStat struct {
	Kind string
	Src  int
	Dst  int
	// StartPS and FlipPS bound the live migration on the simulated clock;
	// FlipEpoch is the global cut epoch the ownership flip rode.
	StartPS   int64
	FlipPS    int64
	FlipEpoch uint64
	// MovedKeys is the snapshot size; CatchupOps the delta-log entries
	// shipped after it (transfer log plus pre-flip residual); SlotCount
	// the ring slots reassigned.
	MovedKeys  int
	CatchupOps int
	SlotCount  int
}

// MigSpan is one shard's device-primitive window for one migration phase,
// the unit the torture sweep strides crash points across.
type MigSpan struct {
	Shard int
	Phase string // "transfer", "catchup", "flip", "cleanup"
	Lo    int64  // first primitive index inside the phase
	Hi    int64  // one past the last
	// Quanta counts the migration quanta this shard ran inside the window
	// (they interleave with requests, all of them inside [Lo, Hi)).
	Quanta int
}

// migBox is the single-writer mailbox migration state crosses ranks
// through. Every field is written by exactly one rank between two
// barriers and read by others only after the next barrier, so the
// barrier's happens-before edge orders every access.
type migBox struct {
	kind       MigrateKind
	src, dst   int
	span       ring.Span
	joinBatch  int    // batch boundary the migration started at
	joinCuts   int    // global cut count at the start
	joinEpoch  uint64 // global committed epoch at the start
	nextMigIdx int
	sched      measure.Schedule
	ringAtJoin *ring.Ring
	flipsAt    []RingFlip
	snap       []migEnt // span snapshot, sorted by key
	snapAtPS   int64    // simulated arrival time of the snapshot
	log1       []migEnt // transfer-phase delta log
	log1AtPS   int64
	final      []migEnt // pre-flip residual delta
}

// migratory reports whether this run reshapes the ring. Every migration
// code path in the serve loop is gated on it, so migration-free runs are
// byte-identical to the pre-migration service.
func (s *Service) migratory() bool {
	return s.cfg.elastic()
}

// maxShards bounds the shard id space the run can grow to.
func (s *Service) maxShards() int {
	if s.cfg.AutoSplit.MaxShards > 0 {
		return s.cfg.AutoSplit.MaxShards
	}
	n := s.cfg.Shards
	for _, m := range s.cfg.Migrations {
		if m.Kind == MigrateSplit {
			n++
		}
	}
	return n
}

// markMigPhase closes the current phase's primitive window on the two
// participating shards.
func (sh *shard) markMigPhase(phase string) {
	if sh.id != sh.migSrc && sh.id != sh.migDst {
		return
	}
	now := sh.dev.PrimitiveCount()
	sh.migSpans = append(sh.migSpans, MigSpan{Shard: sh.id, Phase: phase, Lo: sh.phaseStartPrim, Hi: now, Quanta: sh.phaseQuanta})
	sh.phaseStartPrim, sh.phaseQuanta = now, 0
}

// maybeLogMig appends a span mutation's result to the source's catch-up
// log (pure DRAM: no device primitives, no crash-window perturbation).
func (sh *shard) maybeLogMig(op workload.Op) {
	if !sh.migLogOn || sh.id != sh.migSrc {
		return
	}
	switch op.Kind {
	case workload.OpUpdate, workload.OpInsert, workload.OpRMW, workload.OpDelete:
	default:
		return
	}
	if !sh.migSpanSet[sh.ring.Slot(op.Key)] {
		return
	}
	v, ok := sh.shadow.live[op.Key]
	sh.migLog = append(sh.migLog, migEnt{key: op.Key, val: v, del: !ok})
}

func markApplied(bits []uint64, seq int) { bits[seq>>6] |= 1 << (seq & 63) }

// migLoad hands the shard its next list of migration work.
func (sh *shard) migLoad(span string, items []migEnt, readyPS int64) {
	sh.migWork = migCursor{span: span, items: items, readyPS: readyPS}
}

// migQuantum retires up to n items of the shard's migration work (n <= 0:
// everything left) and is the only place that work is ever applied: real
// device writes, so crash injection can land mid-quantum. The quantum runs
// inside the backend's write-through scope — its stores are durable at its
// end, so no cut inherits their flush. Work still in flight to this shard
// (ship latency) is left alone.
func (sh *shard) migQuantum(n int) error {
	w := &sh.migWork
	if !w.pending() || sh.clock.NowPS() < w.readyPS {
		return nil
	}
	end := len(w.items)
	if n > 0 && w.pos+n < end {
		end = w.pos + n
	}
	sh.rec.Begin(w.span)
	sh.ctr.BeginWriteThrough()
	for _, e := range w.items[w.pos:end] {
		if e.del {
			sh.kv.Delete(e.key)
			sh.shadow.del(e.key)
			continue
		}
		if err := sh.kv.Put(e.key, e.val); err != nil {
			return err
		}
		sh.shadow.put(e.key, e.val)
	}
	sh.ctr.EndWriteThrough()
	sh.rec.End()
	w.pos = end
	sh.phaseQuanta++
	return nil
}

// migRound advances the migration state machine by at most one transition
// at a policy round. justCut reports whether a cut committed since the
// last round (triggers fire only at cut boundaries); force drives the
// end-of-run drain, starting pending specs regardless of AfterCuts and
// advancing the destination's clock past ship latencies.
//
// Transfer, catch-up and cleanup each wait for one shard's work cursor to
// drain; the round only asks whether it has. An open-loop run drains it in
// the idle gaps between arrivals (idleUntil, serveLoop's batch tail). A
// closed-loop run has no arrivals to protect, and the forced drain none
// left: both retire the whole remainder right here, in one quantum.
func (s *Service) migRound(c *mpi.Comm, sh *shard, b int, justCut, force bool) error {
	switch sh.migPhase {
	case migIdle:
		if sh.migIdx < len(s.cfg.Migrations) {
			spec := s.cfg.Migrations[sh.migIdx]
			if (justCut && sh.cuts >= spec.AfterCuts) || force {
				return s.migStart(c, sh, b, spec.Kind, spec.Src, spec.Dst)
			}
			return nil
		}
		if s.cfg.AutoSplit.MaxShards > 0 && justCut && !force {
			return s.autoSplitRound(c, sh, b)
		}
		return nil
	case migFlipReady:
		// The flip rides the next coordinated cut; nothing to do here.
		return nil
	}

	w := &sh.migWork
	if now := sh.clock.NowPS(); force && now < w.readyPS {
		sh.clock.Advance(w.readyPS - now)
	}
	if sh.meas == nil || force {
		if err := sh.migQuantum(0); err != nil {
			return err
		}
	}
	var busy uint64
	if w.pending() || sh.clock.NowPS() < w.readyPS {
		busy = 1
	}
	if c.AllreduceU64(busy, mpi.Max) != 0 {
		return nil
	}
	switch sh.migPhase {
	case migTransfer:
		if sh.id == sh.migSrc {
			s.box.log1 = append([]migEnt(nil), sh.migLog...)
			sh.migLog = sh.migLog[:0]
			s.box.log1AtPS = sh.clock.NowPS() + shipLatencyPS(len(s.box.log1))
		}
		sh.markMigPhase("transfer")
		c.Barrier() // publish the delta log before the destination reads it
		if sh.id == sh.migDst {
			sh.migLoad(spanMigCatchup, s.box.log1, s.box.log1AtPS)
		}
		sh.migPhase = migCatchup
	case migCatchup:
		sh.markMigPhase("catchup")
		sh.migPhase = migFlipReady
	case migCleanup:
		if sh.id == sh.migSrc {
			sh.markMigPhase("cleanup") // the destination owes nothing here
		}
		if sh.migKind == MigrateMerge {
			// No cut is in flight at a policy round, so the next one
			// commits every delete quantum.
			sh.retireQ = append(sh.retireQ, retirePlan{shard: sh.migSrc, whenCuts: sh.cuts + 1})
		}
		sh.migPhase = migIdle
		sh.migSrc, sh.migDst = -1, -1
		sh.migSpan = ring.Span{}
		sh.migSpanSet = nil
	}
	return nil
}

// autoSplitRound allreduces per-shard applied-op counts and splits the
// hottest live shard when the imbalance trigger fires.
func (s *Service) autoSplitRound(c *mpi.Comm, sh *shard, b int) error {
	as := s.cfg.AutoSplit
	live := 0
	for r := 0; r < sh.ring.Shards(); r++ {
		if sh.ring.Weight(r) > 0 {
			live++
		}
	}
	counts := make([]uint64, sh.ring.Shards())
	var total uint64
	for r := range counts {
		var mine uint64
		if r == sh.id {
			mine = sh.roundOps
		}
		counts[r] = c.AllreduceU64(mine, mpi.Max)
		total += counts[r]
	}
	sh.roundOps = 0
	if live >= as.MaxShards {
		return nil
	}
	hot := -1
	for r, n := range counts {
		if sh.ring.Weight(r) < 2 {
			continue // retired, or too thin to split
		}
		if hot < 0 || n > counts[hot] {
			hot = r
		}
	}
	if hot < 0 || total == 0 {
		return nil
	}
	if float64(counts[hot])*float64(live) <= as.HotFactor*float64(total) {
		return nil
	}
	return s.migStart(c, sh, b, MigrateSplit, hot, 0)
}

// migStart opens a migration at a batch boundary: every rank resolves the
// identical span and destination from its ring clone, the source fills
// the mailbox (snapshot capture is a pure DRAM copy of the acked span
// state — the image the next cut would commit for those keys), and a
// split grows the world by one rank, provisioned by serveJoinedRank.
func (s *Service) migStart(c *mpi.Comm, sh *shard, b int, kind MigrateKind, src, dstSpec int) error {
	var (
		span ring.Span
		dst  int
		err  error
	)
	switch kind {
	case MigrateSplit:
		dst = sh.ring.Shards()
		if dst >= len(s.shards) {
			err = fmt.Errorf("split would grow past the run's shard capacity %d", len(s.shards))
		} else {
			span, err = sh.ring.SplitSpan(src)
		}
	case MigrateMove:
		dst = dstSpec
		if dst < 0 || dst >= sh.ring.Shards() || sh.ring.Weight(dst) == 0 {
			err = fmt.Errorf("move target %d is not a live shard", dst)
		} else if dst == src {
			err = fmt.Errorf("move from shard %d to itself", src)
		} else {
			span, err = sh.ring.SplitSpan(src)
		}
	case MigrateMerge:
		dst = dstSpec
		if dst < 0 || dst >= sh.ring.Shards() || sh.ring.Weight(dst) == 0 {
			err = fmt.Errorf("merge target %d is not a live shard", dst)
		} else if dst == src {
			err = fmt.Errorf("merge shard %d into itself", src)
		} else {
			span = sh.ring.AllSpan(src)
			if span.Len() == 0 {
				err = fmt.Errorf("merge source %d owns no slots", src)
			}
		}
	default:
		err = fmt.Errorf("unknown kind %q", kind)
	}
	if err != nil {
		return fmt.Errorf("server: migration %d (%s %d>%d): %w", sh.migIdx, kind, src, dstSpec, err)
	}

	if sh.id == src {
		box := s.box
		box.kind, box.src, box.dst, box.span = kind, src, dst, span
		box.joinBatch = b
		box.joinCuts = sh.cuts
		box.joinEpoch = sh.epochOff + sh.ctr.CommittedEpoch()
		box.nextMigIdx = sh.migIdx + 1
		box.sched = sh.msched
		box.ringAtJoin = sh.ring.Clone()
		box.flipsAt = append([]RingFlip(nil), sh.ringFlips...)
		set := span.SlotSet()
		var pairs []migEnt
		for k, v := range sh.shadow.live {
			if set[sh.ring.Slot(k)] {
				pairs = append(pairs, migEnt{key: k, val: v})
			}
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].key < pairs[j].key })
		box.snap = pairs
		box.snapAtPS = sh.clock.NowPS() + shipLatencyPS(len(pairs))
		box.log1, box.final = nil, nil
		sh.migLog = sh.migLog[:0]
		sh.migLogOn = true
		sh.migStats = append(sh.migStats, MigrationStat{
			Kind: string(kind), Src: src, Dst: dst,
			StartPS: sh.clock.NowPS(), SlotCount: span.Len(), MovedKeys: len(pairs),
		})
	}
	if kind == MigrateSplit {
		// Grow's completing barrier publishes the mailbox to the joining
		// rank and aligns its clock before it provisions.
		c.Grow(dst, func(nc *mpi.Comm) { s.serveJoinedRank(nc) })
	} else {
		c.Barrier() // publish the mailbox to the existing destination
		if sh.id == dst {
			sh.migLoad(spanMigInstall, s.box.snap, s.box.snapAtPS)
		}
	}
	sh.migPhase = migTransfer
	sh.migSrc, sh.migDst, sh.migKind, sh.migSpan = src, dst, kind, span
	sh.migSpanSet = span.SlotSet()
	sh.migIdx++
	if sh.id == src || sh.id == dst {
		sh.phaseStartPrim = sh.dev.PrimitiveCount()
	}
	return nil
}

// preFlip opens the cut that publishes the ownership flip (cutBegin calls
// it when the migration is flip-ready): the source hands over its final
// residual delta (applied by the destination inside the committing epoch,
// so the cut's image of the destination contains the complete span), and
// every rank flips its ring clone, binding the flip to the cut's global
// epoch.
func (s *Service) preFlip(c *mpi.Comm, sh *shard) error {
	if sh.id == sh.migSrc {
		s.box.final = append([]migEnt(nil), sh.migLog...)
		sh.migLog = sh.migLog[:0]
		sh.migLogOn = false
	}
	c.Barrier() // publish the residual before the destination reads it
	if sh.id == sh.migDst {
		// One cut interval of span writes: run to completion, here.
		sh.migLoad(spanMigResidual, s.box.final, 0)
		if err := sh.migQuantum(0); err != nil {
			return err
		}
	}
	gNext := sh.epochOff + sh.ctr.CommittedEpoch() + 1
	if err := sh.ring.Move(sh.migSpan, sh.migDst); err != nil {
		return fmt.Errorf("server: shard %d flipping ring: %w", sh.id, err)
	}
	sh.ringFlips = append(sh.ringFlips, RingFlip{
		Epoch: gNext, Src: sh.migSrc, Dst: sh.migDst,
		Slots: append([]int(nil), sh.migSpan.Slots...),
	})
	sh.flipPending = true
	if sh.id == sh.migSrc {
		st := &sh.migStats[len(sh.migStats)-1]
		st.CatchupOps = len(s.box.log1) + len(s.box.final)
		st.FlipEpoch = gNext
	}
	return nil
}

// postFlip closes every landed cut (cutLanded calls it; a no-op unless the
// cut carried a flip), right after the commit+barrier whatever the cut
// style: the source now owes the deletion of the moved keys (next-epoch
// writes — recovery landing on the flip epoch still finds them,
// consistently with its pre-deletion snapshot), queued as its work cursor,
// and the migration enters cleanup until that drains. Purely local; every
// rank reaches it at the same transition.
func (s *Service) postFlip(sh *shard) {
	if !sh.flipPending {
		return
	}
	sh.flipPending = false
	if sh.id == sh.migSrc {
		var dels []migEnt
		for k := range sh.shadow.live {
			if sh.migSpanSet[sh.ring.Slot(k)] {
				dels = append(dels, migEnt{key: k, del: true})
			}
		}
		sort.Slice(dels, func(i, j int) bool { return dels[i].key < dels[j].key })
		sh.migLoad(spanMigDelete, dels, 0)
		st := &sh.migStats[len(sh.migStats)-1]
		st.FlipPS = sh.clock.NowPS()
	}
	sh.markMigPhase("flip")
	sh.migPhase = migCleanup
}

// retireRound retires a merged-away source at the first idle policy round
// after the cut that committed its last delete quantum: the leaver departs the
// world at a barrier (mpi.Leave), the survivors pair it. Returns done for
// the retiring rank, which must exit its serve loop.
func (s *Service) retireRound(c *mpi.Comm, sh *shard) (done bool, err error) {
	if len(sh.retireQ) == 0 || sh.migPhase != migIdle {
		return false, nil
	}
	plan := sh.retireQ[0]
	if sh.cuts < plan.whenCuts {
		return false, nil
	}
	sh.retireQ = sh.retireQ[1:]
	if sh.id == plan.shard {
		if sh.inEpoch {
			sh.rec.End()
			sh.inEpoch = false
		}
		c.Leave()
		sh.retired = true
		sh.simEndPS = sh.clock.NowPS()
		sh.primEnd = sh.dev.PrimitiveCount()
		return true, nil
	}
	c.Barrier() // pairs with the leaver's departure barrier
	return false, nil
}

// migEndDrain forces every remaining migration to completion before the
// run closes out, so end-of-run verification always sees a quiescent
// ring: pending specs start regardless of AfterCuts, ship latencies are
// jumped on the destination clock, every work cursor drains in one quantum,
// and flips ride forced cuts, taken through in place in the run's cut
// style. A pending retirement is simply dropped — the merged-away source
// stays a (empty) member and is verified normally.
func (s *Service) migEndDrain(c *mpi.Comm, sh *shard) error {
	for {
		switch sh.migPhase {
		case migIdle:
			if sh.migIdx >= len(s.cfg.Migrations) {
				return nil
			}
			spec := s.cfg.Migrations[sh.migIdx]
			if err := s.migStart(c, sh, s.batches, spec.Kind, spec.Src, spec.Dst); err != nil {
				return err
			}
		case migTransfer, migCatchup, migCleanup:
			if err := s.migRound(c, sh, s.batches, false, true); err != nil {
				return err
			}
		case migFlipReady:
			if err := s.cutThrough(c, sh, s.cfg.StepBudget == 0); err != nil {
				return err
			}
		}
	}
}

// serveJoinedRank is the request loop of a shard spawned by a split: it
// provisions a fresh container, then enters the shared serve loop at the
// batch after the join, in the transfer phase, exactly in step with the
// ranks that grew the world.
func (s *Service) serveJoinedRank(c *mpi.Comm) {
	s.runRank(c, func(sh *shard) error {
		if err := s.provisionJoined(sh); err != nil {
			return err
		}
		return s.serveLoop(c, sh, s.box.joinBatch+1)
	})
}

// provisionJoined finishes a joining shard's bring-up over its freshly
// formatted store (runRank): one local checkpoint, so the empty keyspace
// is durable before any migration data lands, then the migration and
// membership state its peers hold. The bring-up
// commit is local epoch 1; epochOff maps it onto the global cut epoch the
// shard joined at, so from here on every coordinated cut advances local
// and global epochs in lockstep and mpi recovery's epoch agreement works
// unchanged over offset-mapped epochs.
func (s *Service) provisionJoined(sh *shard) error {
	box := s.box
	sh.snapshotForNextCut() // local epoch 1 = {}: the join-epoch image
	if err := sh.ctr.Checkpoint(); err != nil {
		return fmt.Errorf("server: shard %d bring-up checkpoint: %w", sh.id, err)
	}
	if sh.deferCoW {
		// The join barrier is behind us and no arrival routes here before the
		// flip: the first-pairing copies of the formatted segments go behind
		// the install's stores, into the arrival-less batches ahead.
		sh.ctr.DeferCoW(foreverPS)
	}
	// The shadow's cut images stay keyed by LOCAL epoch (verify paths
	// subtract the offset), so the snapshot bookkeeping works unchanged.
	sh.epochOff = box.joinEpoch - 1
	sh.ring = box.ringAtJoin.Clone()
	sh.ringFlips = append([]RingFlip(nil), box.flipsAt...)
	sh.migPhase = migTransfer
	sh.migSrc, sh.migDst, sh.migKind = box.src, box.dst, box.kind
	sh.migSpan = box.span
	sh.migSpanSet = box.span.SlotSet()
	sh.migLoad(spanMigInstall, box.snap, box.snapAtPS)
	sh.migIdx = box.nextMigIdx
	sh.cuts = box.joinCuts
	sh.lastRoundCuts = sh.cuts
	sh.appliedBits = make([]uint64, (s.cfg.Ops+63)/64)
	if m := s.cfg.Measure; m != nil {
		sh.msched = box.sched
		sh.meas = measure.NewCollector(*m, sh.msched)
	}
	sh.primBase = sh.dev.PrimitiveCount()
	sh.phaseStartPrim = sh.primBase
	sh.cutStartPS = sh.clock.NowPS()
	sh.roundPS = sh.cutStartPS
	return nil
}

// offsetRecoverable maps a joined shard's local epochs onto the global
// cut numbering for the coordinated recovery protocol, so epoch agreement
// and the at-most-one-behind rollback rule operate in one epoch space.
type offsetRecoverable struct {
	ctr CutBackend
	off uint64
}

func (o offsetRecoverable) CommittedEpoch() uint64  { return o.off + o.ctr.CommittedEpoch() }
func (o offsetRecoverable) RollbackOneEpoch() error { return o.ctr.RollbackOneEpoch() }
func (o offsetRecoverable) Recover() error          { return o.ctr.Recover() }

// ringAt reconstructs the ring as of a global cut epoch by replaying the
// longest recorded flip log's prefix at or below it over the boot ring.
// (Each rank records flips it participated in from its join on; logs are
// prefixes of one another modulo join time, so the longest is complete.)
func (s *Service) ringAt(epoch uint64) (*ring.Ring, error) {
	var flips []RingFlip
	for _, sh := range s.shards {
		if sh != nil && len(sh.ringFlips) > len(flips) {
			flips = sh.ringFlips
		}
	}
	rg := ring.New(s.cfg.Shards, ring.DefaultVnodes)
	for _, f := range flips {
		if f.Epoch > epoch {
			break
		}
		if err := rg.Move(ring.Span{Slots: f.Slots}, f.Dst); err != nil {
			return nil, fmt.Errorf("server: replaying ring flip at epoch %d: %w", f.Epoch, err)
		}
	}
	return rg, nil
}

// verifyRetired checks a retired merge source's crashed image: it
// recovers locally (its frozen committed epoch can only trail the
// survivors' landing, never exceed it, so no rollback is ever needed) and
// must match its own snapshot at that epoch.
func (s *Service) verifyRetired(sh *shard, landing uint64) []string {
	ctr, err := s.reopenBackend(sh.dev)
	if err != nil {
		return []string{fmt.Sprintf("reopen: %v", err)}
	}
	if err := ctr.Recover(); err != nil {
		return []string{fmt.Sprintf("recover: %v", err)}
	}
	local := ctr.CommittedEpoch()
	if sh.epochOff+local > landing {
		return []string{fmt.Sprintf("retired shard committed global epoch %d beyond landing %d", sh.epochOff+local, landing)}
	}
	if err := sh.reattach(ctr, s.cfg.DS); err != nil {
		return []string{err.Error()}
	}
	want, ok := sh.shadow.snapAt(local)
	if !ok {
		return []string{fmt.Sprintf("no shadow snapshot for retired epoch %d", local)}
	}
	return verifyKV(sh.kv, want)
}

// migVerify runs the migration-specific consistency checks after a clean
// run: every rank's ring agrees, every global op was applied exactly
// once service-wide, and a sequential replay of the whole op stream
// matches each key's final-ring owner's state (no key lost, duplicated,
// or stranded on a former owner).
func (s *Service) migVerify(res *Result) {
	var ref *shard
	for _, sh := range s.shards {
		if sh == nil || sh.retired || sh.ring == nil {
			continue
		}
		if ref == nil || len(sh.ringFlips) > len(ref.ringFlips) {
			ref = sh
		}
	}
	if ref == nil {
		return
	}
	refTable := ref.ring.Table()
	for _, sh := range s.shards {
		if sh == nil || sh.ring == nil || sh.retired {
			continue
		}
		t := sh.ring.Table()
		for slot, o := range t {
			if o != refTable[slot] {
				res.Violations = append(res.Violations, Violation{
					Shard: sh.id, Stage: "ring",
					Detail: fmt.Sprintf("slot %d owned by %d, shard %d's ring says %d", slot, o, ref.id, refTable[slot]),
				})
				break
			}
		}
	}

	// Exactly-once application across the handoffs.
	lost, dup := 0, 0
	for seq := 0; seq < s.cfg.Ops; seq++ {
		n := 0
		for _, sh := range s.shards {
			if sh != nil && sh.appliedBits != nil && sh.appliedBits[seq>>6]&(1<<(seq&63)) != 0 {
				n++
			}
		}
		switch {
		case n == 0:
			lost++
		case n > 1:
			dup++
		}
	}
	if lost > 0 {
		res.Violations = append(res.Violations, Violation{Shard: -1, Stage: "applied", Detail: fmt.Sprintf("%d ops never applied by any shard", lost)})
	}
	if dup > 0 {
		res.Violations = append(res.Violations, Violation{Shard: -1, Stage: "applied", Detail: fmt.Sprintf("%d ops applied by more than one shard", dup)})
	}

	// Global ownership: sequential replay of the op stream vs the final
	// ring's owners.
	exp := make(map[uint64]uint64, s.cfg.Keys)
	for k := uint64(0); k < s.cfg.Keys; k++ {
		exp[k] = k
	}
	gens := s.newGenerators() // a fresh replay of the stream the run served
	for i := 0; i < s.cfg.Ops; i++ {
		op := gens[i%len(gens)].Next()
		switch op.Kind {
		case workload.OpUpdate, workload.OpInsert:
			exp[op.Key] = op.Value
		case workload.OpRMW:
			exp[op.Key] += op.Value
		case workload.OpDelete:
			delete(exp, op.Key)
		}
	}
	misrouted, wrong := 0, 0
	var firstBad string
	for k, v := range exp {
		owner := refTable[ref.ring.Slot(k)]
		sh := s.shards[owner]
		if sh == nil {
			misrouted++
			continue
		}
		got, ok := sh.shadow.live[k]
		switch {
		case !ok:
			misrouted++
			if firstBad == "" {
				firstBad = fmt.Sprintf("key %d missing on owner %d", k, owner)
			}
		case got != v:
			wrong++
			if firstBad == "" {
				firstBad = fmt.Sprintf("key %d on owner %d: got %d want %d", k, owner, got, v)
			}
		}
	}
	total := 0
	for _, sh := range s.shards {
		if sh != nil {
			total += len(sh.shadow.live)
		}
	}
	if misrouted > 0 || wrong > 0 {
		res.Violations = append(res.Violations, Violation{
			Shard: -1, Stage: "ownership",
			Detail: fmt.Sprintf("%d keys missing on their owner, %d wrong (%s)", misrouted, wrong, firstBad),
		})
	}
	if total != len(exp) {
		res.Violations = append(res.Violations, Violation{
			Shard: -1, Stage: "ownership",
			Detail: fmt.Sprintf("shards hold %d keys total, sequential replay expects %d", total, len(exp)),
		})
	}
}

// collectMigrations folds per-source migration stats into start order.
func (s *Service) collectMigrations() []MigrationStat {
	var out []MigrationStat
	for _, sh := range s.shards {
		if sh != nil {
			out = append(out, sh.migStats...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartPS < out[j].StartPS })
	return out
}

// MigrationSpans reports each migration phase's device-primitive crash
// window per participating shard from the last completed Run, the index
// set the torture sweep strides crash points across.
func (s *Service) MigrationSpans() []MigSpan {
	var out []MigSpan
	for _, sh := range s.shards {
		if sh != nil {
			out = append(out, sh.migSpans...)
		}
	}
	return out
}
