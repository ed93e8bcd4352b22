package server

import (
	"fmt"

	"libcrpm/internal/alloc"
	"libcrpm/internal/ckpt"
	"libcrpm/internal/core"
	"libcrpm/internal/heap"
	"libcrpm/internal/measure"
	"libcrpm/internal/nvm"
	"libcrpm/internal/obs"
	"libcrpm/internal/pds"
	"libcrpm/internal/replica"
	"libcrpm/internal/ring"
	"libcrpm/internal/workload"
)

// DSKind selects the persistent structure each shard serves from.
type DSKind = pds.Kind

// The two structures of §5.2.1, both implementing pds.KV.
const (
	DSHashMap = pds.KindHashMap
	DSRBMap   = pds.KindRBMap
)

// storeKV is a structure as pds.Bind returns it: a KV that also walks every
// pair it holds, for the end-of-run check and a migration source's span.
type storeKV interface {
	pds.KV
	ForEach(fn func(k, v uint64) bool)
}

// kvRootSlot is the allocator root slot holding each shard's structure
// root, written once at shard creation so recovery can rebind it.
const kvRootSlot = 0

// CutBackend is the checkpoint surface a shard requires of its per-rank
// store: the ckpt write/read/checkpoint contract plus the coordinated-cut
// protocol hooks (epoch inspection, one-epoch rollback for mpi recovery, a
// dirty-footprint estimate for byte-threshold cut policies, tracing, and the
// three ways of doing a cut's work in idle time where the backend has such
// work to move — no-ops where it has none: the write-through scope migration
// quanta run in, whose stores are durable at its end, together with the
// backlog PreFlush would take next, under the scope's one fence; PreFlush,
// which writes back as much of the cut's pending flush as fits a given idle
// time; and DeferCoW, which once every rank has committed a cut moves the
// coming epoch's copy-on-write behind its first stores if the idle time it is
// told of has room for it, for StepCoW to retire as much of as fits each idle
// gap it is shown).
// core.Container and incll.Backend both qualify; the incremental cut
// pipeline and replication additionally need a *core.Container (the shard
// keeps a typed handle when it has one).
type CutBackend interface {
	ckpt.Backend
	CommittedEpoch() uint64
	NextWriteEpoch() uint64
	RollbackOneEpoch() error
	DirtyEstimateBytes() uint64
	SetTrace(*obs.Recorder)
	BeginWriteThrough()
	EndWriteThrough()
	PreFlush(budgetPS int64)
	DeferCoW(idlePS int64) bool
	StepCoW(gapPS int64) int
}

// latencyBounds buckets per-request latencies (picoseconds, 1 ns up).
var latencyBounds = obs.ExpBounds(1_000, 2, 40)

// cutPhase is a shard's position in the cut lifecycle. Every rank holds
// the same phase at every batch boundary.
type cutPhase int

const (
	cutIdle   cutPhase = iota // no cut in flight
	cutFlush                  // pipeline open: flush quanta until the commit
	cutReplay                 // landed: replay quanta until the pipeline is idle
)

// shard is one partition of the service: a device, a container, the KV
// inside it, and the volatile bookkeeping of the request loop. A shard is
// owned by exactly one rank goroutine; nothing here is shared.
type shard struct {
	id    int
	dev   *nvm.Device
	clock *nvm.Clock
	ctr   CutBackend
	// core is the typed handle when ctr is a *core.Container (nil for the
	// incll backend); the incremental pipeline and replication require it.
	core *core.Container
	kv   storeKV
	// view reads the same working image as kv through a readOnly backend,
	// for the shard's own walks of what it holds (a migration source's
	// span, the end-of-run check's second walk), which charge nothing and
	// may not write. Bound at init, and by rebind over the container a
	// crashed run recovered.
	view storeKV
	rec  *obs.Recorder

	// shadow mirrors every acked mutation and journals enough undo to
	// reconstruct its image at the last two cuts, keyed by the committed
	// epoch each cut produced (oracle.go). Coordinated recovery can land at
	// most one epoch behind a shard's latest commit, so two retained cuts
	// always cover the landing epoch.
	shadow *oracle

	acked    uint64 // ops acked since serving started
	sinceCut uint64 // ops acked since the last cut
	cuts     int

	lat        *obs.Histogram
	pause      *obs.Histogram
	cutStartPS int64
	// roundPS is the aligned clock at the previous policy decision, the
	// baseline for CutStats.Round.
	roundPS  int64
	inEpoch  bool
	simEndPS int64

	// phase is where the shard's coordinated cut stands (service.go: the
	// cut lifecycle). While one is in flight, acks are group-committed:
	// apply defers them into pendAcks and releaseAcks acknowledges them
	// after the next checkpoint quantum's fence, so per-op latency absorbs
	// the fence wait. stepBudget is that quantum's size in bytes
	// (Config.StepBudget).
	phase      cutPhase
	pendAcks   []pendAck
	stepBudget int
	// preFlush lets idle gaps write back ahead of the next cut, and deferCoW
	// lets them retire the copy-on-write the last one left behind (gapQuanta).
	// Stop-the-world cuts only: the incremental pipeline budgets its own
	// flush and replay, in its own gaps, and phase never leaves cutIdle
	// without it.
	preFlush, deferCoW bool
	// lentPS is the time migration quanta have run past the arrival behind
	// their gap since the last cut (kept under deferCoW only): idle time the
	// schedule had, which the backend is shown in no later gap because the
	// requests it delayed are still catching up. The next cut's DeferCoW is
	// told of it.
	lentPS int64

	// Open-loop measurement (Config.Measure != nil; both stay nil/zero
	// otherwise, so the rig-off paths are byte-identical to a build
	// without the rig). msched maps global sequence numbers to intended
	// arrival timestamps; meas accumulates omission-free latencies.
	msched measure.Schedule
	meas   *measure.Collector

	// primBase and primEnd bound the serving phase in device primitive
	// indices: crash points in [primBase, primEnd) hit live request
	// traffic or a cut, never setup. reqBase is where the requests begin:
	// past the open loop's drain of the populate's copy-on-write, primBase
	// elsewhere.
	primBase, reqBase, primEnd int64

	// Elastic resharding (migrate.go). ring is this rank's private clone of
	// the ownership table, the one every op is routed on, flipped
	// identically on every rank at identical cut boundaries; epochOff maps
	// the shard's local committed epochs onto the global cut numbering
	// (nonzero only for shards spawned by a split mid-run, whose bring-up
	// checkpoint stands for the global epoch they joined at). With no
	// migration scheduled the ring never flips and mig stays nil.
	ring     *ring.Ring
	epochOff uint64
	// mig is the in-flight migration's record, shared by every rank (nil
	// while idle); migPhase is this rank's position in it and migWork the
	// bulk work it left on this shard (install, catch-up, pull set, delete),
	// retired by migQuantum in idle time.
	mig      *migration
	migPhase migPhase
	migIdx   int // next Config.Migrations entry to trigger
	migWork  migCursor
	// quantumN is the size of a gap quantum, in items (migQuantumItems).
	quantumN      int
	retireQ       []retirePlan
	retired       bool
	roundOps      uint64 // applied ops since the last autosplit evaluation
	lastRoundCuts int
	// reports makes this rank the one that calls Config.Progress: the
	// lowest id still in the world (retireRound hands it on).
	reports bool
	// appliedBits marks every global sequence number this shard applied;
	// a clean run checks each op was applied exactly once service-wide (no
	// loss, no double-apply across a handoff).
	appliedBits []uint64
	// readSum folds every point read the shard served (readMix), so a run
	// whose ring flipped can check its reads against a sequential replay of
	// the stream, whatever order the shards served them in.
	readSum uint64
	// issued is how many global ops the batches before the current boundary
	// hold, and cutOps what it was at each cut this shard began, by the
	// global epoch the cut commits: the op prefix the cut's image holds,
	// which a crashed run's ownership check replays.
	issued   int
	cutOps   map[uint64]int
	migSpans []MigSpan
	// phaseStartPrim is the device primitive index the current migration
	// phase started at, bounding the crash windows MigrationSpans reports.
	phaseStartPrim int64

	// Replication (Config.Replicas > 0; everything below stays nil/zero
	// otherwise, so the replica-free paths are byte-identical to a build
	// without them).
	ds                   DSKind
	reps                 *replica.Group
	secKV                []storeKV      // lazily opened read handles over secondary containers
	pendDelta            *replica.Delta // captured at cutBegin, shipped by cutLanded
	cstate               []replica.ClientState
	readLat              *obs.Histogram // SLA-routed read latency (RTT + replica work)
	stale                *obs.Histogram // staleness of secondary-served reads, epochs
	secReads, unmetReads uint64
	slas                 []replica.SLA // Config.SLAs, assigned to clients round-robin
	repViol              []string      // online read verification failures (routeRead)
}

// newShardShell builds the volatile half of a shard — device, clock,
// bookkeeping, the trace recorder if the run has one — so the request loop
// can arm crash injection on the device before any container primitive runs.
// init builds the persistent half.
func newShardShell(id, deviceSize, stepBudget int, trace bool) *shard {
	dev := nvm.NewDevice(deviceSize)
	var rec *obs.Recorder
	if trace {
		rec = obs.NewRecorder(dev.Clock())
	}
	return &shard{
		id:         id,
		dev:        dev,
		clock:      dev.Clock(),
		rec:        rec,
		shadow:     newOracle(),
		lat:        obs.NewHistogram(latencyBounds),
		pause:      obs.NewHistogram(obs.PauseBounds),
		stepBudget: stepBudget,
		quantumN:   migQuantumItems,
		reports:    id == 0,
	}
}

// init formats the shard's allocator and KV over a freshly formatted
// backend, persisting the KV root in the root array so recovery can rebind
// it (rebind).
func (sh *shard) init(ctr CutBackend, ds DSKind, buckets int) error {
	a, err := alloc.Format(heap.New(ctr))
	if err != nil {
		return fmt.Errorf("server: shard %d allocator: %w", sh.id, err)
	}
	kv, err := pds.Bind(a, ds, 0, buckets)
	if err != nil {
		return err
	}
	a.SetRoot(kvRootSlot, uint64(kv.Root()))
	view, err := openKV(readOnly{ctr}, ds)
	if err != nil {
		return err
	}
	sh.ctr, sh.kv, sh.view, sh.ds = ctr, kv, view, ds
	sh.core, _ = ctr.(*core.Container)
	ctr.SetTrace(sh.rec)
	return nil
}

// readOnly is a backend's working image for reads the model prices at
// nothing — a DRAM copy of state the shard already holds, like a replica
// delta's Capture: OnRead charges no device time, and OnWrite refuses.
type readOnly struct{ ckpt.Backend }

func (readOnly) OnRead(int, int) {}

func (readOnly) OnWrite(int, int) { panic("server: write through a read-only view") }

// openKV rebinds the structure persisted in a formatted store, through its
// allocator, from the root init recorded.
func openKV(b ckpt.Backend, ds DSKind) (storeKV, error) {
	a, err := alloc.Open(heap.New(b))
	if err != nil {
		return nil, fmt.Errorf("allocator reopen: %w", err)
	}
	root := int(a.Root(kvRootSlot))
	if root == 0 {
		return nil, fmt.Errorf("KV reopen: no structure root recorded")
	}
	kv, err := pds.Bind(a, ds, root, 0)
	if err != nil {
		return nil, fmt.Errorf("KV reopen: %w", err)
	}
	return kv, nil
}

// rebind readies a recovered shard for verification: it rebinds the shard
// to its container as reopened from the (crashed, recovered) device state —
// recovery itself is the caller's — and returns the oracle's image of local
// epoch, the one the container landed on.
func (sh *shard) rebind(ctr CutBackend, ds DSKind, local uint64) (image, error) {
	kv, err := openKV(ctr, ds)
	if err != nil {
		return image{}, fmt.Errorf("server: shard %d: %v", sh.id, err)
	}
	view, err := openKV(readOnly{ctr}, ds)
	if err != nil {
		return image{}, fmt.Errorf("server: shard %d: %v", sh.id, err)
	}
	sh.ctr, sh.kv, sh.view = ctr, kv, view
	sh.core, _ = ctr.(*core.Container)
	want, ok := sh.shadow.at(local)
	if !ok {
		return image{}, fmt.Errorf("no shadow snapshot for local epoch %d", local)
	}
	return want, nil
}

// pendAck is a request's identity for its ack — a group-committed one's
// while it awaits its quantum fence: enough to acknowledge it on both the
// closed-loop track (latency from dispatch) and, under the measurement rig,
// the open-loop track (latency from intended start).
type pendAck struct {
	kind       workload.OpKind
	seq        int
	startPS    int64
	intendedPS int64
}

// apply executes one acked request against the KV and mirrors its effect
// into the volatile shadow: every request enters the shard here. seq is the
// request's global sequence number (its round-robin interleave position
// across all clients). Latency is the simulated time the request consumed on
// this shard, the pull of a key it still owes from a flip included (pull); a
// point read's result goes into readSum. Under replication a read is routed
// by its client's SLA instead (routeRead), and a write stamps its client's
// session (stampWrite).
//
// Under the open-loop rig the request also has an intended arrival on the
// shard's schedule: if the shard is idle ahead of it the gap is spent on
// the in-flight cut, if any, and the clock then advances to the arrival
// (see idleUntil); if the shard is running behind, the op has been queueing
// and the open-loop latency charges that wait — the
// coordinated-omission-free accounting the rig exists for.
func (sh *shard) apply(seq int, op workload.Op) error {
	p := pendAck{kind: op.Kind, seq: seq}
	if sh.meas != nil {
		p.intendedPS = sh.msched.IntendedPS(seq)
		if err := sh.idleUntil(p.intendedPS); err != nil {
			return err
		}
	}
	p.startPS = sh.clock.NowPS()
	if err := sh.pull(op); err != nil {
		return err
	}
	switch op.Kind {
	case workload.OpRead, workload.OpScan:
		if sh.reps != nil {
			return sh.routeRead(p, op)
		}
		if op.Kind == workload.OpScan {
			sh.kv.Scan(op.Key, op.ScanLen)
			break
		}
		v, ok := sh.kv.Get(op.Key)
		sh.readSum += readMix(seq, v, ok)
	case workload.OpUpdate, workload.OpInsert:
		if err := sh.kv.Put(op.Key, op.Value); err != nil {
			return err
		}
		sh.shadow.put(op.Key, op.Value)
	case workload.OpRMW:
		old, _ := sh.kv.Get(op.Key)
		if err := sh.kv.Put(op.Key, old+op.Value); err != nil {
			return err
		}
		sh.shadow.add(op.Key, op.Value)
	case workload.OpDelete:
		sh.kv.Delete(op.Key)
		sh.shadow.del(op.Key)
	default:
		return fmt.Errorf("server: shard %d: unknown op kind %v", sh.id, op.Kind)
	}
	if sh.reps != nil { // a write: routed reads returned above
		sh.stampWrite(seq, op.Kind)
	}
	if sh.phase != cutIdle {
		sh.pendAcks = append(sh.pendAcks, p)
		return nil
	}
	sh.ack(p, sh.clock.NowPS()-p.startPS)
	return nil
}

// ack acknowledges one request latPS after its dispatch, on every track:
// the shard's latency histogram, the open-loop collector.
func (sh *shard) ack(p pendAck, latPS int64) {
	sh.lat.Observe(latPS)
	sh.meas.Observe(p.kind, p.seq, p.intendedPS, p.startPS, p.startPS+latPS)
	sh.acked++
	sh.sinceCut++
}

// idleUntil spends the idle gap ahead of the next arrival, if there is one:
// one quantum of whatever is pending (gapQuanta), then the wait. With nothing
// pending the shard just waits, adding no device primitives.
func (sh *shard) idleUntil(arrivalPS int64) error {
	if err := sh.gapQuanta(arrivalPS); err != nil {
		return err
	}
	if now := sh.clock.NowPS(); now < arrivalPS {
		sh.clock.Advance(arrivalPS - now)
	}
	return nil
}

// idleTail spends what is left of a batch's arrival window once the shard
// has served its last request of the batch — for a shard with no arrival in
// it, the whole window: a gap like any other, except that it is long enough
// for many quanta. It stops when the window ends or a round of quanta finds
// nothing to do; work still in flight to this shard (ship latency) is waited
// for. The last quantum may overrun the window, by at most itself.
func (sh *shard) idleTail(untilPS int64) error {
	for {
		t0 := sh.clock.NowPS()
		if err := sh.gapQuanta(untilPS); err != nil {
			return err
		}
		if sh.clock.NowPS() > t0 {
			continue
		}
		w := &sh.migWork
		if !w.pending() || t0 >= w.readyPS || t0 >= untilPS {
			return nil
		}
		sh.clock.Advance(min(w.readyPS, untilPS) - t0)
	}
}

// gapQuanta runs the tenants of the idle gap between now and untilPS — none,
// if the shard is running behind — one quantum each, in a fixed order. A
// shard does not sit idle while work is pending.
//
// First the cut: if an incremental cut is in flight, the gap retires one
// checkpoint quantum and the held requests are acknowledged at its fence — so
// a request waits for a quantum, never for the batch boundary, and the
// arrival a quantum overruns waits at most that one quantum (the pause:BUDGET
// contract). Under stop-the-world cuts the same place goes to the
// copy-on-write the last cut deferred: the backend retires as much of it as
// fits the gap, and never less than one block. Only the cut's local work
// moves into the gaps: its global transitions (commit plus barrier, pipeline
// idle) stay on cutStep's batch-boundary allreduce, so the ranks remain in
// lockstep, and a deferred replay has none. Once nothing local is left the
// quantum is free: the acks go out at once, with no span and no pause sample,
// exactly as cutStep treats an empty step.
//
// Then migration: if work is pending, the end of the gap still ahead and no
// deferred replay left — a migration store into a quarantined segment would
// be staged, lifted as ordinary dirt and left for the next cut to flush, the
// very thing its write-through scope exists to prevent — one quantum of it,
// under the same at-most-itself bound.
//
// What is left of the gap goes to the coming stop-the-world cut: the backend
// writes back as much of the cut's pending flush as provably fits, so unlike
// the other two this tenant never makes a request wait.
func (sh *shard) gapQuanta(untilPS int64) error {
	t0 := sh.clock.NowPS()
	if t0 >= untilPS {
		return nil
	}
	replaying := false
	switch {
	case sh.deferCoW:
		// Shown every gap, replay pending or not: the gaps of this epoch are
		// what the backend decides by whether to defer the next one's copies.
		replaying = sh.ctr.StepCoW(untilPS-t0) > 0
		sh.observePause(sh.clock.NowPS() - t0)
	case sh.phase != cutIdle:
		if _, err := sh.quantum(); err != nil {
			return err
		}
	}
	if sh.migWork.pending() && !replaying && sh.clock.NowPS() < untilPS {
		if err := sh.migQuantum(sh.quantumN); err != nil {
			return err
		}
		if over := sh.clock.NowPS() - untilPS; over > 0 && sh.deferCoW {
			sh.lentPS += over
		}
	}
	if sh.preFlush && sh.clock.NowPS() < untilPS {
		sh.ctr.PreFlush(untilPS - sh.clock.NowPS())
		if over := sh.clock.NowPS() - untilPS; over > 0 {
			return fmt.Errorf("server: shard %d: pre-flush ran %d ps past the arrival it was sized to fit before", sh.id, over)
		}
	}
	return nil
}

// quantum retires one bounded quantum of the in-flight incremental cut and
// acknowledges the held requests at its fence, returning the bytes still
// pending in the cut's current phase. A quantum that retires nothing costs
// nothing and records nothing; its acks still go out.
func (sh *shard) quantum() (int, error) {
	t0 := sh.clock.NowPS()
	rem, err := sh.core.CheckpointStep(sh.stepBudget)
	if err != nil {
		return 0, err
	}
	sh.observePause(sh.clock.NowPS() - t0)
	sh.releaseAcks()
	return rem, nil
}

// releaseAcks acknowledges every deferred request at the current clock —
// called right after a checkpoint quantum's fence, the group-commit
// point their durability rides on.
func (sh *shard) releaseAcks() {
	now := sh.clock.NowPS()
	for _, p := range sh.pendAcks {
		sh.ack(p, now-p.startPS)
	}
	sh.pendAcks = sh.pendAcks[:0]
}

// observePause records one checkpoint-induced stall. Zero-cost pipeline
// calls (an empty quantum, a free Begin) are not pauses and would skew
// the quantiles toward zero, so they are skipped.
func (sh *shard) observePause(ps int64) {
	if ps > 0 {
		sh.pause.Observe(ps)
	}
}

// snapshotForNextCut marks the shadow's present state as the image of the
// epoch the in-flight cut will commit. Taken BEFORE the commit starts, so
// the image exists no matter where inside the commit a crash lands; older
// cuts beyond the two-epoch recovery window are pruned.
func (sh *shard) snapshotForNextCut() {
	next := sh.ctr.CommittedEpoch() + 1
	floor := next - 1
	if sh.reps != nil {
		// Replicated retention floor: secondary-served reads are verified
		// against the image of the view they claim, so every epoch from the
		// slowest replica's installed cut up must stay (the recovery window
		// next-1 included — installed never exceeds committed here).
		floor = min(floor, sh.reps.MinInstalled())
	}
	sh.shadow.cut(next, floor)
}

// tally is one kind of bad key: how many, and the smallest, with the value
// the KV holds there and the one the image does, as tallyFormats word them.
type tally struct {
	n              int
	key, got, want uint64
}

func (t *tally) note(key, got, want uint64) {
	if t.n == 0 || key < t.key {
		t.key, t.got, t.want = key, got, want
	}
	t.n++
}

// tallyFormats words the missing, wrong and extra tallies, in that order.
var tallyFormats = [...]string{
	"%[1]d missing keys (first: %[2]d, want %[4]d)",
	"%[1]d wrong keys (first: %[2]d, got %[3]d want %[4]d)",
	"%[1]d extra keys (first: %[2]d, got %[3]d)",
}

// verifyKV compares a KV's full contents against an expected image,
// returning deterministic violation details (the smallest bad key of each
// kind first) — empty means the images match exactly. A key outside the
// image that stray admits may be held all the same, unchecked (nil: none).
//
// Nothing is copied from either side: the KV is walked once, up to the
// pairs its Len counts and reading nothing past the last (a container's
// reads are charged), and each key is looked up in the image. The set of
// keys walked counts distinct keys against Len and, when the walk held fewer
// of the image's keys than it has, names the missing ones; keys are dense —
// [0, Keys) plus the clients' strided inserts — so it is a bit per key, in
// pages of 4096 keys. A key the walk repeats counts once, by its pair with
// the largest value; only then is the KV walked a second time, with every
// repeated key held back until all its values are seen.
func verifyKV(kv storeKV, want image, stray func(key uint64) bool) []string {
	n := kv.Len()
	var (
		keys, held int
		tallies    [3]tally // missing, wrong, extra
		seen       map[uint64]*[64]uint64
	)
	// mark adds k to the keys walked, reporting whether it was there.
	mark := func(k uint64) bool {
		pg := seen[k>>12]
		if pg == nil {
			pg = new([64]uint64)
			seen[k>>12] = pg
		}
		w, b := &pg[k>>6&63], uint64(1)<<(k&63)
		had := *w&b != 0
		*w |= b
		return had
	}
	check := func(k, v uint64) {
		keys++
		switch iv, ok := want.get(k); {
		case ok:
			held++
			if iv != v {
				tallies[1].note(k, v, iv)
			}
		case stray == nil || !stray(k):
			tallies[2].note(k, v, 0)
		}
	}
	// walk checks each key of the first n pairs, once: a key walked before
	// goes into rep with the largest value of its later pairs, and a key rep
	// already holds only raises its value there.
	walk := func(rep map[uint64]uint64) map[uint64]uint64 {
		keys, held, tallies, seen = 0, 0, [3]tally{}, map[uint64]*[64]uint64{}
		pairs := 0
		kv.ForEach(func(k, v uint64) bool {
			if r, ok := rep[k]; ok {
				rep[k] = max(r, v)
			} else if !mark(k) {
				check(k, v)
			} else {
				if rep == nil {
					rep = make(map[uint64]uint64)
				}
				rep[k] = v
			}
			pairs++
			return pairs < n
		})
		return rep
	}
	if n > 0 {
		if rep := walk(nil); rep != nil {
			walk(rep)
			for k, v := range rep {
				mark(k)
				check(k, v)
			}
		}
	}
	if held < want.n {
		want.each(func(k, v uint64) {
			if pg := seen[k>>12]; pg == nil || pg[k>>6&63]&(1<<(k&63)) == 0 {
				tallies[0].note(k, 0, v)
			}
		})
		tallies[0].n = want.n - held
	}
	var bad []string
	if keys != n {
		bad = append(bad, fmt.Sprintf("scan returned %d keys, Len reports %d", keys, n))
	}
	for i, t := range tallies {
		if t.n > 0 {
			bad = append(bad, fmt.Sprintf(tallyFormats[i], t.n, t.key, t.got, t.want))
		}
	}
	return bad
}
