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
//	    waits for the next policy cut; the source keeps logging.
//	flipReady ──next coordinated cut──▶ cleanup:
//	    pre-flip, every rank flips its ring clone, and the destination takes
//	    what the source logged after the catch-up list shipped as its pull
//	    set, the last entry per key; the cut applies none of it. From the
//	    next request on the destination serves the span: a read or
//	    read-modify-write of an owed key applies its entry first (a scan,
//	    the whole set), an update, insert or delete drops it, idle-gap
//	    quanta apply the rest, and the flip binds to the cut after this
//	    one, whose image of the destination is the first to hold the whole
//	    span. Post-commit the source owes the deletion of the moved keys
//	    (next-epoch writes), again in quanta.
//	cleanup ──both finished, binding cut committed──▶ idle:
//	    only now may the next migration start, and a merge source retires
//	    (mpi.Leave) at the cut after this one, once its deletions are
//	    durable.
//
// Every list the source hands over is read from its own KV, never from the
// verification oracle: the snapshot and the post-flip deletions are one walk
// of what it holds, through a read-only view that charges nothing (the model
// prices the snapshot as a DRAM copy), and each catch-up entry is the state
// the op left in the KV. So a value only the KV got wrong moves with the
// span, and the end-of-run sequential replay (verifyOwnership) finds it.
//
// Crash anywhere in this pipeline is covered by the cut protocol: before
// the flip's binding cut commits everywhere, recovery lands on an epoch
// where the source still owns (and still stores) the span — it served the
// span until the flip cut; from the binding cut on, the destination's
// committed image contains the span. The ring for the landing epoch is the
// boot ring with every migration record whose flip epoch is at or below it
// replayed, in start order.
package server

import (
	"errors"
	"fmt"
	"math"
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
// count exceeds hotFactor times the live-shard mean, until MaxShards live
// shards exist.
type AutoSplitSpec struct {
	// MaxShards caps the live shard count; zero disables autosplit.
	MaxShards int
}

// hotFactor is autosplit's imbalance trigger: the hottest shard splits once
// it carries more than this multiple of the live-shard mean. Just above 1, so
// any measurable skew splits — a factor of 2 could never fire on two live
// shards, where the hottest would have to carry more than the total.
const hotFactor = 1.01

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
// time: the snapshot to install, a delta log to replay or the pull set
// (destination), the moved keys to delete (source). Resumable, so
// migQuantum can retire it a few items at a time wherever the shard finds
// idle time.
type migCursor struct {
	span    string // trace span name of this work's quanta
	items   []migEnt
	pos     int
	readyPS int64 // simulated arrival of the items (ship latency); 0 for local work
	// owed indexes the pull set — the one list whose keys the shard already
	// serves — by key, for as long as an item is owed: a request may pull
	// its key's item ahead of the cursor (pull), which then skips it. nil
	// for every other list.
	owed map[uint64]int
}

func (w *migCursor) pending() bool {
	if w.owed != nil {
		return len(w.owed) > 0
	}
	return w.pos < len(w.items)
}

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

// MigrationStat is one completed (or in-flight at run end, then forced to
// completion) resharding operation's deterministic summary, recorded by
// the source rank.
type MigrationStat struct {
	Kind string
	Src  int
	Dst  int
	// StartPS and FlipPS bound the live migration on the simulated clock;
	// FlipEpoch is the global cut epoch the ownership flip binds to, the
	// one after the cut it rode.
	StartPS   int64
	FlipPS    int64
	FlipEpoch uint64
	// MovedKeys is the snapshot size; CatchupOps the delta-log entries
	// shipped after it (the catch-up list plus what the source logged
	// after it); SlotCount the ring slots reassigned.
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
}

// migration is one resharding operation, one record every rank reads. The
// source allocates it in migStart and publishes it — appends it to
// Service.migs — before the barrier (or Grow) that start already takes;
// every rank then holds the pointer until the migration returns to idle,
// and the record outlives it as the run's account of it (Result.Migrations,
// in start order, since migrations run one at a time) and as the ring's
// history: its span, dst and flipEpoch are the flip replayFlips replays.
// Every field is written by the source alone, before the barrier that
// publishes it to the destination, so the barrier's happens-before edge
// orders every access; a later migration gets a record of its own, so a
// peer still finishing this one's cleanup never reads the next one's.
type migration struct {
	kind     MigrateKind
	src, dst int
	span     ring.Span
	slots    map[int]bool // span.SlotSet()
	// What a split's fresh rank provisions from (provisionJoined): the batch
	// boundary, global cut count and global committed epoch at the start,
	// the Config.Migrations entry after this one, and the arrival schedule.
	batch int
	cuts  int
	epoch uint64
	next  int
	sched measure.Schedule
	// The destination's three lists — the span snapshot (sorted by key),
	// the catch-up list, the log the flip cut hands over — and when the
	// first two arrive (ship latency); log is the source's span mutations
	// since the last list was cut from it.
	snap, catchup, residual []migEnt
	snapAtPS, catchupAtPS   int64
	log                     []migEnt
	// startPS and flipPS bound the migration on the source's clock;
	// flipEpoch is the global cut epoch the flip binds to: the one after
	// the cut it rode (0 until preFlip).
	startPS, flipPS int64
	flipEpoch       uint64
}

// stat is the record's deterministic summary. A migration a crash cut short
// of its flip reports no flip and no catch-up.
func (m *migration) stat() MigrationStat {
	st := MigrationStat{
		Kind: string(m.kind), Src: m.src, Dst: m.dst,
		StartPS: m.startPS, FlipPS: m.flipPS, FlipEpoch: m.flipEpoch,
		MovedKeys: len(m.snap), SlotCount: m.span.Len(),
	}
	if m.flipEpoch > 0 {
		st.CatchupOps = len(m.catchup) + len(m.residual)
	}
	return st
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
	if sh.id != sh.mig.src && sh.id != sh.mig.dst {
		return
	}
	now := sh.dev.PrimitiveCount()
	sh.migSpans = append(sh.migSpans, MigSpan{Shard: sh.id, Phase: phase, Lo: sh.phaseStartPrim, Hi: now})
	sh.phaseStartPrim = now
}

// maybeLogMig appends a span mutation's result — the state the op left in
// the source's KV, read through its view — to the catch-up log (pure DRAM:
// no device primitives, no crash-window perturbation). The source serves
// span traffic only until the flip, so the log ends there.
func (sh *shard) maybeLogMig(so seqOp) {
	m := sh.mig
	if m == nil || sh.id != m.src || !m.slots[so.slot] {
		return
	}
	switch so.op.Kind {
	case workload.OpUpdate, workload.OpInsert, workload.OpRMW, workload.OpDelete:
	default:
		return
	}
	v, ok := sh.view.Get(so.op.Key)
	m.log = append(m.log, migEnt{key: so.op.Key, val: v, del: !ok})
}

// spanItems is the one walk of the shard's own KV a migration source makes,
// through its view: every key it holds in slots, in key order, as its current
// state (the snapshot) or as its deletion (the post-flip cleanup).
func (sh *shard) spanItems(slots map[int]bool, del bool) []migEnt {
	var items []migEnt
	for _, p := range sh.view.Scan(0, sh.view.Len()) {
		if slots[sh.ring.Slot(p.Key)] {
			items = append(items, migEnt{key: p.Key, val: p.Value, del: del})
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i].key < items[j].key })
	return items
}

func markApplied(bits []uint64, seq int) { bits[seq>>6] |= 1 << (seq & 63) }

// readMix is one point read's term in an order-independent read sum: its
// sequence number, the value it returned and whether the key was found,
// mixed so that a stale or missing value changes the sum.
func readMix(seq int, val uint64, found bool) uint64 {
	x := uint64(seq)*0x9E3779B97F4A7C15 ^ val
	if found {
		x ^= 0xD6E8FEB86659FD93
	}
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ x>>31
}

// migLoad hands the shard its next list of migration work.
func (sh *shard) migLoad(span string, items []migEnt, readyPS int64) {
	sh.migWork = migCursor{span: span, items: items, readyPS: readyPS}
}

// migQuantum retires up to n items of the shard's migration work (n <= 0:
// everything left), skipping what requests already pulled. The quantum runs
// inside the backend's write-through scope — its stores are durable at its
// end, so no cut inherits their flush, and so is the request dirt the gap's
// pre-flush would have written back had the quantum not taken the gap.
// Work still in flight to this shard (ship latency) is left alone.
func (sh *shard) migQuantum(n int) error {
	w := &sh.migWork
	if !w.pending() || sh.clock.NowPS() < w.readyPS {
		return nil
	}
	sh.rec.Begin(w.span)
	sh.ctr.BeginWriteThrough()
	for k := 0; w.pending() && (n <= 0 || k < n); w.pos++ {
		e := w.items[w.pos]
		if w.owed != nil {
			if _, ok := w.owed[e.key]; !ok {
				continue // pulled by a request
			}
			delete(w.owed, e.key)
		}
		if err := sh.migApply(e); err != nil {
			return err
		}
		k++
	}
	sh.ctr.EndWriteThrough()
	sh.rec.End()
	return nil
}

// migApply is the only place migration work is ever applied: real device
// writes, so crash injection can land on any of them, mirrored into the
// oracle.
func (sh *shard) migApply(e migEnt) error {
	if e.del {
		sh.kv.Delete(e.key)
		sh.shadow.del(e.key)
		return nil
	}
	if err := sh.kv.Put(e.key, e.val); err != nil {
		return err
	}
	sh.shadow.put(e.key, e.val)
	return nil
}

// pullSet is the work cursor a flip hands the destination: the last entry
// per key of ents (entries are value-results, so the last one is exact),
// indexed by key.
func pullSet(ents []migEnt) migCursor {
	var items []migEnt
	owed := make(map[uint64]int)
	for _, e := range ents {
		if i, ok := owed[e.key]; ok {
			items[i] = e
			continue
		}
		owed[e.key] = len(items)
		items = append(items, e)
	}
	return migCursor{span: spanMigResidual, items: items, owed: owed}
}

// pull settles, ahead of a request, what the pull set still owes it. A read
// or read-modify-write of an owed key applies that key's entry first, one
// charged KV write; a scan applies the whole set. An update, insert or
// delete replaces the key's state whatever it was, so its entry is dropped
// unapplied. Finding out costs nothing, like maybeLogMig's append: a DRAM
// lookup. The pulled stores are the request's: no write-through scope, so
// they join the epoch's dirt like the request's own.
func (sh *shard) pull(op workload.Op) error {
	w := &sh.migWork
	if w.owed == nil {
		return nil
	}
	switch op.Kind {
	case workload.OpScan:
		for _, e := range w.items[w.pos:] {
			if _, ok := w.owed[e.key]; ok {
				delete(w.owed, e.key)
				if err := sh.migApply(e); err != nil {
					return err
				}
			}
		}
	case workload.OpRead, workload.OpRMW:
		if i, ok := w.owed[op.Key]; ok {
			delete(w.owed, op.Key)
			return sh.migApply(w.items[i])
		}
	default:
		delete(w.owed, op.Key)
	}
	return nil
}

// migRound advances the migration state machine by at most one transition
// at a policy round. justCut reports whether a cut committed since the
// last round (triggers fire only at cut boundaries); force drives the
// end-of-run drain, starting pending specs regardless of AfterCuts and
// advancing the destination's clock past ship latencies.
//
// Transfer, catch-up and cleanup each wait for a work cursor to drain — the
// destination's list, or in cleanup its pull set and the source's deletes;
// the round only asks whether it has. An open-loop run drains it in the
// idle gaps between arrivals (idleUntil, serveLoop's batch tail). A
// closed-loop run has no arrivals to protect, and the forced drain none
// left: both retire the whole remainder right here, in one quantum. A
// flip-ready migration has nothing to wait for but the cut that carries it
// (cutBegin): no collective, no work. Cleanup also waits for the flip's
// binding cut to commit, so no migration starts, and no split rank
// provisions its ring, on a flip recovery could still undo.
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
		return nil // the flip rides the next coordinated cut (cutBegin)
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
	m := sh.mig
	var hold uint64
	if w.pending() || sh.clock.NowPS() < w.readyPS {
		hold = 1
	}
	if sh.migPhase == migCleanup && !sh.flipBound() {
		hold = 1
	}
	if c.AllreduceU64(hold, mpi.Max) != 0 {
		return nil
	}
	switch sh.migPhase {
	case migTransfer:
		// The destination has installed the snapshot: the source ships what
		// it logged meanwhile as the catch-up list.
		if sh.id == m.src {
			m.catchup, m.log = m.log, nil
			m.catchupAtPS = sh.clock.NowPS() + shipLatencyPS(len(m.catchup))
		}
		c.Barrier() // publish the list before the destination reads it
		if sh.id == m.dst {
			sh.migLoad(spanMigCatchup, m.catchup, m.catchupAtPS)
		}
		sh.markMigPhase("transfer")
		sh.migPhase = migCatchup
	case migCatchup:
		sh.markMigPhase("catchup")
		sh.migPhase = migFlipReady
	case migCleanup:
		sh.markMigPhase("cleanup")
		if m.kind == MigrateMerge {
			// No cut is in flight at a policy round, so the next one
			// commits every delete quantum.
			sh.retireQ = append(sh.retireQ, retirePlan{shard: m.src, whenCuts: sh.cuts + 1})
		}
		sh.migPhase = migIdle
		sh.mig = nil
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
	if float64(counts[hot])*float64(live) <= hotFactor*float64(total) {
		return nil
	}
	return s.migStart(c, sh, b, MigrateSplit, hot, 0)
}

// migStart opens a migration at a batch boundary: every rank resolves the
// identical span and destination from its ring clone, the source allocates
// the record and walks its own KV for the snapshot (a pure DRAM copy of the
// acked span state — the image the next cut would commit for those keys),
// and a split grows the world by one rank, provisioned by serveJoinedRank.
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
		m := &migration{
			kind: kind, src: src, dst: dst, span: span, slots: span.SlotSet(),
			batch: b, cuts: sh.cuts, epoch: sh.epochOff + sh.ctr.CommittedEpoch(), next: sh.migIdx + 1,
			sched: sh.msched, startPS: sh.clock.NowPS(),
		}
		if s.beforeSnapshot != nil {
			s.beforeSnapshot(sh, m)
		}
		m.snap = sh.spanItems(m.slots, false)
		m.snapAtPS = m.startPS + shipLatencyPS(len(m.snap))
		s.migs = append(s.migs, m)
	}
	if kind == MigrateSplit {
		// Grow's completing barrier publishes the record to the joining
		// rank and aligns its clock before it provisions.
		c.Grow(dst, func(nc *mpi.Comm) { s.serveJoinedRank(nc) })
	} else {
		c.Barrier() // publish the record to the existing destination
	}
	sh.mig = s.migs[len(s.migs)-1]
	if sh.id == dst {
		sh.migLoad(spanMigInstall, sh.mig.snap, sh.mig.snapAtPS)
	}
	sh.migPhase = migTransfer
	sh.migIdx++
	if sh.id == src || sh.id == dst {
		sh.phaseStartPrim = sh.dev.PrimitiveCount()
	}
	return nil
}

// preFlip opens the cut that carries the ownership flip (cutBegin calls it
// when the migration is flip-ready), handing the span over post-copy: the
// source hands over what it logged since the catch-up list shipped, the
// destination loads it as its pull set (the catch-up list is drained: the
// migration turned flip-ready only once it was), and every rank flips its
// ring clone. The cut applies none of it, so its image of the destination
// lacks the span's latest writes, while the source's image, taken at the
// same cut, holds them all — the source served the span until now. The flip
// therefore binds to the cut after this one (cutBegin drains what is still
// owed before that one's image is taken): a recovery landing on this cut
// routes on the pre-flip ring.
//
// The residual counts as delivered with this cut's barrier: its ship
// latency is not charged.
func (s *Service) preFlip(c *mpi.Comm, sh *shard) error {
	m := sh.mig
	if sh.id == m.src {
		m.residual, m.log = m.log, nil
	}
	c.Barrier() // publish the residual before the destination reads it
	if sh.id == m.dst {
		sh.migWork = pullSet(m.residual)
	}
	gNext := sh.epochOff + sh.ctr.CommittedEpoch() + 1
	if err := sh.ring.Move(m.span, m.dst); err != nil {
		return fmt.Errorf("server: shard %d flipping ring: %w", sh.id, err)
	}
	if sh.id == m.src {
		m.flipEpoch = gNext + 1
	}
	return nil
}

// flipBound reports whether the in-flight migration's flip has bound: its
// binding cut has committed, here and so on every rank.
func (sh *shard) flipBound() bool {
	return sh.mig.flipEpoch > 0 && sh.epochOff+sh.ctr.CommittedEpoch() >= sh.mig.flipEpoch
}

// postFlip closes every landed cut (cutLanded calls it; a no-op unless the
// cut carried a flip — the migration was flip-ready when the cut began, and
// no policy round runs while a cut is in flight), right after the
// commit+barrier whatever the cut style: the source now owes the deletion
// of the moved keys (next-epoch writes — recovery landing on the flip epoch
// still finds them, consistently with its pre-deletion snapshot), queued as
// its work cursor, and the migration enters cleanup until that drains.
// Purely local; every rank reaches it at the same transition.
func (s *Service) postFlip(sh *shard) {
	if sh.migPhase != migFlipReady {
		return
	}
	if m := sh.mig; sh.id == m.src {
		sh.migLoad(spanMigDelete, sh.spanItems(m.slots, true), 0)
		m.flipPS = sh.clock.NowPS()
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
	// Progress goes to the lowest id still in the world, which every
	// survivor learns at this same round.
	sh.reports = c.AllreduceU64(uint64(sh.id), mpi.Min) == uint64(sh.id)
	return false, nil
}

// migEndDrain forces every remaining migration to completion before the
// run closes out, so end-of-run verification always sees a quiescent
// ring: pending specs start regardless of AfterCuts, ship latencies are
// jumped on the destination clock, every work cursor drains in one quantum,
// and flips ride forced cuts, as do the cuts they bind to, taken through in
// place in the run's cut style. A pending retirement is simply dropped —
// the merged-away source stays a (empty) member and is verified normally.
func (s *Service) migEndDrain(c *mpi.Comm, sh *shard) error {
	stw := s.cfg.StepBudget == 0
	for {
		var err error
		switch sh.migPhase {
		case migIdle:
			if sh.migIdx >= len(s.cfg.Migrations) {
				return nil
			}
			spec := s.cfg.Migrations[sh.migIdx]
			err = s.migStart(c, sh, s.batches, spec.Kind, spec.Src, spec.Dst)
		case migCleanup:
			if !sh.flipBound() {
				err = s.cutThrough(c, sh, stw)
				break
			}
			err = s.migRound(c, sh, s.batches, false, true)
		case migTransfer, migCatchup:
			err = s.migRound(c, sh, s.batches, false, true)
		case migFlipReady:
			err = s.cutThrough(c, sh, stw)
		}
		if err != nil {
			return err
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
		return s.serveLoop(c, sh, sh.mig.batch+1)
	})
}

// provisionJoined finishes a joining shard's bring-up over its freshly
// formatted store (runRank): one local checkpoint, so the empty keyspace
// is durable before any migration data lands, then the migration and
// membership state its peers hold, from the split's record. The bring-up
// commit is local epoch 1; epochOff maps it onto the global cut epoch the
// shard joined at, so from here on every coordinated cut advances local
// and global epochs in lockstep and mpi recovery's epoch agreement works
// unchanged over offset-mapped epochs.
func (s *Service) provisionJoined(sh *shard) error {
	m := s.migs[len(s.migs)-1]
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
	sh.epochOff = m.epoch - 1
	if err := s.replayFlips(sh.ring, m.epoch); err != nil {
		return err
	}
	sh.mig, sh.migPhase = m, migTransfer
	sh.migLoad(spanMigInstall, m.snap, m.snapAtPS)
	sh.migIdx = m.next
	sh.cuts = m.cuts
	sh.lastRoundCuts = sh.cuts
	if mc := s.cfg.Measure; mc != nil {
		sh.msched = m.sched
		sh.meas = measure.NewCollector(*mc, sh.msched)
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

// ringAt reconstructs the ring as of a global cut epoch: the boot ring with
// the migration records' flips at or below it replayed.
func (s *Service) ringAt(epoch uint64) (*ring.Ring, error) {
	rg := ring.New(s.cfg.Shards, ring.DefaultVnodes)
	return rg, s.replayFlips(rg, epoch)
}

// replayFlips moves on rg, a boot ring, every span the run's migrations
// flipped at or below a global cut epoch. Migrations run one at a time, so
// start order is flip order and the first record that has not flipped
// (flipEpoch 0) or flipped later ends the replay.
func (s *Service) replayFlips(rg *ring.Ring, epoch uint64) error {
	for _, m := range s.migs {
		if m.flipEpoch == 0 || m.flipEpoch > epoch {
			break
		}
		if err := rg.Move(m.span, m.dst); err != nil {
			return fmt.Errorf("server: replaying ring flip at epoch %d: %w", m.flipEpoch, err)
		}
	}
	return nil
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
	return sh.verifyRecovered(ctr, s.cfg.DS, local)
}

// verifyApplied checks, after every clean run, that each global op was
// applied by exactly one shard (no loss, no double-apply across a handoff).
func (s *Service) verifyApplied(res *Result) {
	lost, dup := 0, 0
	for seq := 0; seq < s.cfg.Ops; seq++ {
		n := 0
		for _, sh := range s.shards {
			if sh.appliedBits[seq>>6]&(1<<(seq&63)) != 0 {
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
}

// verifyOwnership checks a clean run whose ring flipped: every member's ring
// agrees with the migration records' flips replayed over the boot ring, a
// sequential replay of the whole op stream matches each key's final owner's
// state (no key lost, duplicated, or stranded on a former owner), and the
// point reads the shards served sum to what the replay implies — a read
// served from a span before its data arrived returns what the replay never
// held, even where the shard's own oracle, mirroring the same stale state,
// agrees with it. A run that never flipped routes on the boot ring
// throughout and has nothing to check here.
func (s *Service) verifyOwnership(res *Result) {
	if len(s.migs) == 0 || s.migs[0].flipEpoch == 0 {
		return
	}
	final, err := s.ringAt(math.MaxUint64)
	if err != nil {
		res.Violations = append(res.Violations, Violation{Shard: -1, Stage: "ring", Detail: err.Error()})
		return
	}
	for _, sh := range s.shards {
		if sh.retired {
			continue
		}
		for slot, o := range sh.ring.Table() {
			if want := final.OwnerOfSlot(slot); o != want {
				res.Violations = append(res.Violations, Violation{
					Shard: sh.id, Stage: "ring",
					Detail: fmt.Sprintf("slot %d owned by %d, the migration records say %d", slot, o, want),
				})
				break
			}
		}
	}

	exp, reads := s.replayStream(s.cfg.Ops)
	if d := s.ownership(exp, final, func(sh *shard) map[uint64]uint64 { return sh.shadow.live }); d != "" {
		res.Violations = append(res.Violations, Violation{Shard: -1, Stage: "ownership", Detail: d})
	}
	total := 0
	var served uint64
	for _, sh := range s.shards {
		total += len(sh.shadow.live)
		served += sh.readSum
	}
	if total != len(exp) {
		res.Violations = append(res.Violations, Violation{
			Shard: -1, Stage: "ownership",
			Detail: fmt.Sprintf("shards hold %d keys total, sequential replay expects %d", total, len(exp)),
		})
	}
	if served != reads {
		res.Violations = append(res.Violations, Violation{
			Shard: -1, Stage: "read",
			Detail: fmt.Sprintf("the point reads served sum to %#x, the sequential replay's to %#x: a read returned what the stream never held there", served, reads),
		})
	}
}

// verifyLandingOwnership checks a crashed run that migrated: a sequential
// replay of the ops the landing cut's image holds must match what each key's
// owner under the landing ring recovered. Each shard matching its own oracle
// does not imply it — a flip bound to a cut whose image of the destination
// lacks the span's last writes passes that check on every shard.
func (s *Service) verifyLandingOwnership(res *Result, landing uint64, rg *ring.Ring) {
	n := -1
	for _, sh := range s.shards {
		if v, ok := sh.cutOps[landing]; ok {
			n = v
			break
		}
	}
	if n < 0 {
		res.Violations = append(res.Violations, Violation{Shard: -1, Stage: "ownership", Detail: fmt.Sprintf("no shard began the cut of landing epoch %d", landing)})
		return
	}
	exp, _ := s.replayStream(n)
	if d := s.ownership(exp, rg, func(sh *shard) map[uint64]uint64 {
		held := make(map[uint64]uint64, sh.kv.Len())
		for _, p := range sh.kv.Scan(0, sh.kv.Len()) {
			held[p.Key] = p.Value
		}
		return held
	}); d != "" {
		res.Violations = append(res.Violations, Violation{Shard: -1, Stage: "ownership", Detail: fmt.Sprintf("at landing epoch %d: %s", landing, d)})
	}
}

// replayStream applies the op stream's first n ops in sequence to the
// populated key space: every key's state after them, and what the point
// reads among them sum to (readMix).
func (s *Service) replayStream(n int) (map[uint64]uint64, uint64) {
	exp := make(map[uint64]uint64, s.cfg.Keys)
	for k := uint64(0); k < s.cfg.Keys; k++ {
		exp[k] = k
	}
	var reads uint64
	gens := s.newGenerators()
	for i := 0; i < n; i++ {
		op := gens[i%len(gens)].Next()
		switch op.Kind {
		case workload.OpRead:
			v, ok := exp[op.Key]
			reads += readMix(i, v, ok)
		case workload.OpUpdate, workload.OpInsert:
			exp[op.Key] = op.Value
		case workload.OpRMW:
			exp[op.Key] += op.Value
		case workload.OpDelete:
			delete(exp, op.Key)
		}
	}
	return exp, reads
}

// ownership compares a sequential replay's state with what each key's owner
// under rg holds (held, once per shard): keys missing on their owner, keys
// holding another value there, and keys the replay deleted that their owner
// still holds. It describes what it found, the smallest bad key first, or
// returns "" if nothing.
func (s *Service) ownership(exp map[uint64]uint64, rg *ring.Ring, held func(*shard) map[uint64]uint64) string {
	kv := make([]map[uint64]uint64, len(s.shards))
	for i, sh := range s.shards {
		kv[i] = held(sh)
	}
	missing, wrong, extra := 0, 0, 0
	first, firstBad := uint64(math.MaxUint64), ""
	note := func(k uint64, f func() string) {
		if k <= first {
			first, firstBad = k, f()
		}
	}
	for k, v := range exp {
		owner := rg.Owner(k)
		switch got, ok := kv[owner][k]; {
		case !ok:
			missing++
			note(k, func() string { return fmt.Sprintf("key %d missing on owner %d", k, owner) })
		case got != v:
			wrong++
			note(k, func() string { return fmt.Sprintf("key %d on owner %d: got %d want %d", k, owner, got, v) })
		}
	}
	for id, m := range kv {
		for k, v := range m {
			if _, ok := exp[k]; !ok && rg.Owner(k) == id {
				extra++
				note(k, func() string { return fmt.Sprintf("key %d on owner %d: got %d, the replay deleted it", k, id, v) })
			}
		}
	}
	if missing+wrong+extra == 0 {
		return ""
	}
	return fmt.Sprintf("%d keys missing on their owner, %d wrong, %d deleted but held (%s)", missing, wrong, extra, firstBad)
}

// MigrationSpans reports each migration phase's device-primitive crash
// window per participating shard from the last completed Run, the index
// set the torture sweep strides crash points across.
func (s *Service) MigrationSpans() []MigSpan {
	var out []MigSpan
	for _, sh := range s.shards {
		out = append(out, sh.migSpans...)
	}
	return out
}
