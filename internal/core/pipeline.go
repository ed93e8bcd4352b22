package core

import (
	"errors"
	"slices"

	"libcrpm/internal/bitmap"
	"libcrpm/internal/nvm"
	"libcrpm/internal/region"
)

// The incremental cut pipeline splits Checkpoint into resumable pieces so
// a serving loop can interleave bounded quanta of checkpoint work with
// foreground traffic instead of stalling for the whole flush:
//
//	CheckpointBegin   capture the cut's dirty set, quarantine its segments
//	CheckpointStep    retire a budgeted quantum of flush/copy work + fence
//	CheckpointCommit  drain the remainder, two-fence epoch flip
//	CheckpointStep    (default mode) retire budgeted quanta of replay work
//
// The committed image is exactly the working state at CheckpointBegin:
// a write barrier in OnWrite/Write intercepts stores that land in a
// quarantined segment while its cut is in flight. In default mode the
// barrier first flushes the block's pending cut claim in place
// (flush-before-write), then captures the block's cut-boundary image
// aside and diverts the store to cache only — the store reaches the
// media through the post-commit replay, never before, so a crash at any
// point still recovers an exact epoch boundary. In buffered mode the
// barrier only snapshots the block's DRAM image aside before the new
// store lands; the copy loop substitutes the aside image.
//
// Replay (default mode only) runs after the commit: each segment that
// absorbed staged stores gets its next-epoch copy-on-write performed
// with aside images substituted for staged blocks, then the staged
// stores are re-applied as ordinary dirty stores. Coordinated callers
// must barrier between CheckpointCommit and the replay steps
// (internal/server's cutStep does): replay overwrites epoch e's backup
// copies, which peers may still need for a one-epoch rollback until
// every rank has committed e+1.
//
// The replay has a second way in, for a caller whose cuts are monolithic
// but whose time between requests is idle: DeferCoW, called once a cut has
// landed (and, coordinated, its barrier is behind every rank), quarantines
// every clean segment that owes the new epoch a copy-on-write and schedules
// that copy as replay work. The epoch's first stores then go through the
// same write barrier instead of copying inline, and StepCoW retires the
// copies in the caller's idle gaps with the same quantum, flip and lift. A
// Checkpoint that finds such a replay unfinished finishes it first.

type incPhase int

const (
	incFlush  incPhase = iota // between Begin and Commit
	incReplay                 // after Commit, staged stores outstanding
)

// incState is the volatile state of one in-flight incremental checkpoint.
// It exists only between CheckpointBegin and pipeline completion; a nil
// Container.inc means the pipeline is idle and every write-path guard
// vanishes.
type incState struct {
	phase incPhase
	// deferred marks a replay DeferCoW scheduled rather than one a commit
	// left behind: no cut is in flight, scopes and pre-flush stay live
	// outside the quarantine, a checkpoint finishes it instead of refusing,
	// and a quarantined segment the replay has neither started nor staged a
	// store in gives up its backup to a steal as it would with its copy
	// inline (incReserved).
	deferred bool

	// cutSegs quarantines the cut's segments: stores into them are
	// intercepted by the write barrier until the segment's cut (and, in
	// default mode, its replay) has fully retired.
	cutSegs *bitmap.Set
	// cutBlocks is the cut's remaining flush (default) or copy (buffered)
	// set; bits clear as quanta and the write barrier retire them.
	cutBlocks *bitmap.Set
	// fcur is the ascending cursor into cutBlocks: everything below it has
	// been retired, so each quantum resumes the scan in O(1).
	fcur      int
	remaining int // bytes still set in cutBlocks
	cutBytes  int // cut footprint at Begin (metrics)

	// aside maps block -> its cut-boundary image, captured by the write
	// barrier before the first post-Begin store into the block.
	aside map[int][]byte

	// Default-mode staging: blocks whose post-Begin stores live only in
	// cache (never marked dirty, so they cannot reach the media) until the
	// post-commit replay re-applies them.
	staged *bitmap.Set
	// segCost holds each staged segment's replay cost in bytes; replayRem
	// is their sum, decremented as segments complete. liftRem counts the
	// staged bytes of flipped segments still waiting to be re-applied as
	// ordinary dirty stores (the budget-bounded quarantine lift).
	segCost   map[int]int
	replayRem int
	liftRem   int
	// Replay cursor: current segment (-1 = pick next), next block, whether
	// the segment needs a full copy (fresh pairing), and the backup target.
	rSeg, rBlk int
	rFull      bool
	rBackupOff int

	// Buffered-mode plan, fixed at Begin exactly as the monolithic
	// checkpoint would have chosen: per-segment copy target and state
	// flip, plus the Begin-time curDirty image that decides which copied
	// blocks the other region still misses.
	plans   map[int]incPlan
	fromCur *bitmap.Set

	// completed lists, inside a replay quantum, the segments whose copy is
	// done and whose state flip waits for the quantum's fences: out of the
	// quarantine already, their backups still not to be stolen. Empty
	// between quanta.
	completed []int

	// Recycled across cuts (the incState itself is: Container.incFree):
	// aside images whose block retired.
	freeImgs [][]byte
}

// takeIncState hands out the pipeline's volatile state, reset: the last
// finished cut's if there is one (incFinish parks it in incFree), so a
// steady-state cut allocates nothing that scales with the heap, the dirty set
// or the staged set. The caller installs it as c.inc, or parks it again.
func (c *Container) takeIncState() *incState {
	inc := c.incFree
	if inc == nil {
		inc = &incState{
			cutSegs:   bitmap.New(c.l.NMain),
			cutBlocks: bitmap.New(c.l.TotalBlocks()),
			aside:     make(map[int][]byte),
		}
		if c.opts.Mode == ModeBuffered {
			inc.fromCur = bitmap.New(c.l.TotalBlocks())
			inc.plans = make(map[int]incPlan)
		} else {
			inc.staged = bitmap.New(c.l.TotalBlocks())
			inc.segCost = make(map[int]int)
		}
	}
	c.incFree = nil
	inc.reset()
	return inc
}

// reset returns a recycled state to what a fresh one holds, whatever the
// cut that last used it left behind; the caller then fills in the new cut.
func (inc *incState) reset() {
	inc.phase, inc.fcur, inc.rSeg = incFlush, 0, -1
	inc.deferred = false
	inc.replayRem, inc.liftRem = 0, 0
	inc.cutSegs.ClearAll()
	inc.cutBlocks.ClearAll()
	for b := range inc.aside {
		inc.dropAside(b)
	}
	if inc.staged != nil {
		inc.staged.ClearAll()
		clear(inc.segCost)
	} else {
		clear(inc.plans)
	}
}

// captureAside saves block b's cut-boundary image (src) aside, reusing a
// retired image's storage when one is free.
func (inc *incState) captureAside(b int, src []byte) {
	var img []byte
	if n := len(inc.freeImgs); n > 0 {
		img, inc.freeImgs = inc.freeImgs[n-1], inc.freeImgs[:n-1]
	} else {
		img = make([]byte, len(src))
	}
	copy(img, src)
	inc.aside[b] = img
}

// dropAside retires block b's aside image, if it has one, for reuse.
func (inc *incState) dropAside(b int) {
	if img, ok := inc.aside[b]; ok {
		inc.freeImgs = append(inc.freeImgs, img)
		delete(inc.aside, b)
	}
}

// CheckpointBegin opens an incremental checkpoint: the current dirty set
// becomes the cut, its segments are quarantined behind the write barrier,
// and the next epoch opens for foreground writes. No device work happens
// here (buffered mode persists at most a few fresh pairing entries), so
// the pause is near zero; the flush/copy work drains through
// CheckpointStep and CheckpointCommit.
func (c *Container) CheckpointBegin() error {
	if c.opts.Concurrent {
		c.writeMu.Lock()
		defer c.writeMu.Unlock()
	}
	end, err := c.beginCut("ckpt-begin")
	if err != nil {
		return err
	}
	defer end()
	inc := c.takeIncState()
	inc.cutSegs.CopyFrom(c.dirtySegs)
	if c.opts.Mode == ModeBuffered {
		inc.fromCur.CopyFrom(c.curDirty)
		eIdx := int(c.meta.CommittedEpoch() % 2)
		bps := c.l.BlocksPerSeg()
		for s := c.dirtySegs.NextSet(0); s >= 0; s = c.dirtySegs.NextSet(s + 1) {
			// Pairing happens here, while dirtySegs still protects this
			// cut's segments from stealing each other's backups.
			p := c.bufferedTarget(eIdx, s)
			inc.plans[s] = p
			pend, _ := c.pending(p)
			hi := (s + 1) * bps
			for b := c.curDirty.NextSetInRange(s*bps, hi); b >= 0; b = c.curDirty.NextSetInRange(b+1, hi) {
				inc.cutBlocks.Set(b)
			}
			for b := pend.NextSetInRange(s*bps, hi); b >= 0; b = pend.NextSetInRange(b+1, hi) {
				inc.cutBlocks.Set(b)
			}
		}
		c.curDirty.ClearAll()
	} else {
		c.cutRuns(inc.cutBlocks.SetRange)
	}
	inc.remaining = inc.cutBlocks.Count() * c.l.BlkSize
	inc.cutBytes = inc.remaining
	c.dirtySegs.ClearAll()
	c.wtForget()
	c.inc = inc
	return nil
}

// CheckpointStep retires up to budgetBytes of the in-flight checkpoint's
// pending work — the cut's flush/copy set before the commit, the staged
// replay after it — and ends the quantum with one fence so group-committed
// acks can ride it. budgetBytes <= 0 drains the current phase completely.
// It returns the bytes still pending in the current phase; a call with no
// checkpoint in flight is a no-op returning 0.
func (c *Container) CheckpointStep(budgetBytes int) (int, error) {
	if c.opts.Concurrent {
		c.writeMu.Lock()
		defer c.writeMu.Unlock()
	}
	return c.checkpointStepLocked(budgetBytes), nil
}

func (c *Container) checkpointStepLocked(budgetBytes int) int {
	inc := c.inc
	if inc == nil {
		return 0
	}
	if inc.phase == incReplay {
		return c.replayStep("ckpt-replay", budgetBytes)
	}
	if inc.remaining == 0 {
		return 0
	}
	clock := c.dev.Clock()
	prev := clock.SetCategory(nvm.CatCheckpoint)
	defer clock.SetCategory(prev)
	c.rec.Begin("ckpt-step")
	c.stepCopy(budgetBytes)
	c.dev.SFence()
	c.rec.End()
	return inc.remaining
}

// replayStep retires one quantum of the replay under a span of the given
// name, closes the pipeline behind the last one, and returns the bytes still
// pending.
func (c *Container) replayStep(span string, budgetBytes int) int {
	inc := c.inc
	clock := c.dev.Clock()
	prev := clock.SetCategory(nvm.CatCheckpoint)
	defer clock.SetCategory(prev)
	c.rec.Begin(span)
	c.replayQuantum(budgetBytes)
	c.rec.End()
	if inc.replayRem <= 0 && inc.liftRem <= 0 {
		c.incFinish()
		return 0
	}
	return inc.replayRem + inc.liftRem
}

// stepCopy retires up to budgetBytes of the cut's remaining set in
// ascending block order: in-place flushes in default mode, replica copies
// in buffered mode. The caller fences.
func (c *Container) stepCopy(budgetBytes int) {
	inc := c.inc
	if budgetBytes <= 0 || budgetBytes > inc.remaining {
		budgetBytes = inc.remaining
	}
	blk := c.l.BlkSize
	want := (budgetBytes + blk - 1) / blk
	if c.opts.Mode == ModeBuffered {
		bps := c.l.BlocksPerSeg()
		for i := 0; i < want; i++ {
			b := inc.cutBlocks.NextSet(inc.fcur)
			if b < 0 {
				return
			}
			inc.fcur = b + 1
			src := inc.aside[b]
			if src == nil {
				src = c.buf[b*blk : (b+1)*blk]
			}
			c.copyBuffered(inc.plans[b/bps], b, src, inc.fromCur.Test(b))
			inc.dropAside(b)
			inc.cutBlocks.Clear(b)
			inc.remaining -= blk
		}
		return
	}
	// Default mode: batch runs of adjacent pending blocks into single
	// flushes, exactly as the monolithic flush loop does.
	for want > 0 {
		b0 := inc.cutBlocks.NextSet(inc.fcur)
		if b0 < 0 {
			return
		}
		b1 := b0 + 1
		for b1-b0 < want && b1 < c.l.TotalBlocks() && inc.cutBlocks.Test(b1) {
			b1++
		}
		c.flushRun(b0, b1)
		inc.cutBlocks.ClearRange(b0, b1)
		inc.fcur = b1
		inc.remaining -= (b1 - b0) * blk
		want -= b1 - b0
	}
}

// CheckpointCommit drains whatever remains of the cut's set, fences, and
// performs the two-fence epoch flip — the same commit the monolithic
// checkpoint issues. In default mode, segments that absorbed staged
// stores while the cut was in flight leave replay work behind: the
// pipeline stays in flight and subsequent CheckpointStep calls retire it.
// Coordinated callers must barrier before stepping the replay (it
// overwrites epoch e's backups, which peers may still need to roll back
// to until everyone holds e+1).
func (c *Container) CheckpointCommit() error {
	if c.opts.Concurrent {
		c.writeMu.Lock()
		defer c.writeMu.Unlock()
	}
	inc := c.inc
	if inc == nil {
		return errors.New("core: no incremental checkpoint in flight")
	}
	if inc.phase != incFlush {
		return errors.New("core: incremental checkpoint already committed; step the replay instead")
	}
	clock := c.dev.Clock()
	prev := clock.SetCategory(nvm.CatCheckpoint)
	defer clock.SetCategory(prev)
	c.rec.Begin("ckpt-commit")
	if c.opts.Mode == ModeDefault && inc.remaining >= c.opts.LLCSize {
		// The monolithic LLC heuristic: above the threshold one wbinvd
		// beats a clwb loop. Staged lines are clean, so they survive it.
		c.dev.WBINVD()
		inc.cutBlocks.ClearAll()
		inc.remaining = 0
	} else if inc.remaining > 0 {
		c.stepCopy(-1)
	}
	c.rec.Begin("fence")
	c.dev.SFence()
	c.rec.End()

	c.commitEpoch(func(neIdx int) {
		for s := inc.cutSegs.NextSet(0); s >= 0; s = inc.cutSegs.NextSet(s + 1) {
			st := region.SSMain
			if c.opts.Mode == ModeBuffered {
				st = inc.plans[s].newState
			}
			c.meta.SetSegState(neIdx, s, st)
		}
	})
	c.metrics.CheckpointBytes += int64(inc.cutBytes)
	c.rec.Count("ckpt/dirty_bytes", int64(inc.cutBytes))
	c.metrics.Epochs++
	c.rec.End() // ckpt-commit

	inc.phase = incReplay
	if c.opts.Mode == ModeDefault {
		bps := c.l.BlocksPerSeg()
		for b := inc.staged.NextSet(0); b >= 0; b = inc.staged.NextSet((b/bps + 1) * bps) {
			c.scheduleReplay(inc, b/bps)
		}
	}
	if inc.replayRem == 0 {
		c.incFinish()
	}
	return nil
}

// scheduleReplay puts quarantined segment s on the replay's work list: the
// one way a segment's next-epoch copy-on-write becomes replay work, whether
// a commit found stores staged in it, the write barrier staged its first
// one after the commit, or DeferCoW quarantined it clean.
func (c *Container) scheduleReplay(inc *incState, s int) {
	inc.segCost[s] = c.segReplayCost(s)
	inc.replayRem += inc.segCost[s]
}

// segReplayCost is the bytes segment s's replayed copy-on-write will
// move: a differential copy when a pairing exists, a full segment
// otherwise. dirtyBlocks of a quarantined segment cannot change while the
// cut is in flight, so the cost is stable once recorded.
func (c *Container) segReplayCost(s int) int {
	if c.mainToBackup[s] != region.NoPair {
		bps := c.l.BlocksPerSeg()
		return c.dirtyBlocks.CountRange(s*bps, (s+1)*bps) * c.l.BlkSize
	}
	return c.l.SegSize
}

// replayQuantum retires up to budgetBytes of replay. For each scheduled
// segment (nextReplaySeg) it performs the next epoch's copy-on-write — backup
// copies sourced from aside images where the block was staged, from the
// working state otherwise — batching all completed segments' state flips
// under a shared fence pair like eager CoW. Completed segments leave the
// quarantine immediately (new stores take the ordinary dirty path; a
// copy-on-write probe sees SS_Backup and copies nothing); their staged
// stores are then re-applied as ordinary dirty stores by the lift loop,
// budget-bounded like the copies, so no single quantum absorbs a hot
// segment's whole staged set.
func (c *Container) replayQuantum(budgetBytes int) {
	inc := c.inc
	if budgetBytes <= 0 {
		budgetBytes = int(^uint(0) >> 1)
	}
	bps, blk := c.l.BlocksPerSeg(), c.l.BlkSize
	processed := 0
	for processed < budgetBytes {
		if inc.rSeg < 0 {
			s := c.nextReplaySeg(inc)
			if s < 0 {
				break
			}
			if c.mainToBackup[s] == region.NoPair && len(c.freeBackups) == 0 && inc.staged.NextSetInRange(s*bps, (s+1)*bps) < 0 {
				// The free backup DeferCoW counted for s has gone to an inline
				// copy-on-write since, or its pair to a steal. Nothing is staged
				// in it, so it leaves the quarantine uncopied and owes its copy
				// at its first store like any other segment: stealing is that
				// store's business, never a deferred copy's. (A segment with a
				// store staged must be copied, and steals where that store
				// would have.)
				inc.cutSegs.Clear(s)
				inc.replayRem -= inc.segCost[s]
				delete(inc.segCost, s)
				continue
			}
			backup, hadPair := c.findPairedBackup(s)
			if !hadPair {
				c.meta.SetBackupToMain(int(backup), uint32(s))
				c.rec.Count("cow/full_segments", 1)
			} else {
				c.rec.Count("cow/diff_segments", 1)
			}
			inc.rSeg, inc.rBlk = s, s*bps
			inc.rFull = !hadPair
			inc.rBackupOff = c.l.BackupOff(int(backup))
		}
		s := inc.rSeg
		hi := (s + 1) * bps
		b := -1
		if inc.rFull {
			if inc.rBlk < hi {
				b = inc.rBlk
			}
		} else {
			b = c.dirtyBlocks.NextSetInRange(inc.rBlk, hi)
		}
		if b < 0 {
			inc.completed = append(inc.completed, s)
			inc.rSeg = -1
			// Volatile bookkeeping right away, so the scan cannot re-pick
			// the segment within this quantum: lift the quarantine (its
			// staged stores become lift work) and retire its replay cost.
			// All of it dies with the pipeline on a crash; only the state
			// flip below needs fences.
			inc.cutSegs.Clear(s)
			inc.liftRem += inc.staged.CountRange(s*bps, hi) * blk
			inc.replayRem -= inc.segCost[s]
			delete(inc.segCost, s)
			continue
		}
		boff := (b - s*bps) * blk
		if src := inc.aside[b]; src != nil {
			c.dev.ChargeDRAMCopy(blk)
			c.dev.NTStore(inc.rBackupOff+boff, src)
		} else {
			mainOff := c.l.MainOff(s) + boff
			c.dev.ChargeNVMRead(blk)
			c.dev.NTStore(inc.rBackupOff+boff, c.dev.Working()[mainOff:mainOff+blk])
		}
		c.cowBytes += int64(blk)
		processed += blk
		inc.rBlk = b + 1
	}
	if len(inc.completed) > 0 {
		c.flipToBackup(int(c.meta.CommittedEpoch()%2), inc.completed...)
		inc.completed = inc.completed[:0]
	} else if processed > 0 {
		c.dev.SFence() // all quantum copies durable
	}
	// Lift: re-apply flipped segments' staged stores as ordinary
	// next-epoch writes (they mark their lines dirty, so from here the
	// normal protocol owns them). Volatile only — no fence needed, and a
	// crash loses them with the rest of the uncommitted epoch.
	if inc.liftRem > 0 && processed < budgetBytes {
		for b := inc.staged.NextSet(0); b >= 0 && processed < budgetBytes; {
			s := b / bps
			if inc.cutSegs.Test(s) {
				b = inc.staged.NextSet((s + 1) * bps)
				continue
			}
			off := c.l.HeapToDevice(b * blk)
			c.dev.StoreBulk(off, c.dev.Working()[off:off+blk])
			c.noteDirty(b)
			c.dirtySegs.Set(s)
			inc.staged.Clear(b)
			inc.dropAside(b)
			inc.liftRem -= blk
			processed += blk
			b = inc.staged.NextSet(b + 1)
		}
	}
}

// nextReplaySeg picks the segment the replay copies next: the lowest one
// still quarantined that holds staged stores — stores keep landing there, and
// every block they touch before the flip costs an aside image and a lift —
// and only when none is left the lowest one scheduled with nothing staged in
// it (DeferCoW's; after a commit only staged segments are scheduled). -1
// means no copy is left. Flipped segments' blocks stay in staged until the
// lift retires them, hence the quarantine test.
func (c *Container) nextReplaySeg(inc *incState) int {
	bps := c.l.BlocksPerSeg()
	for b := inc.staged.NextSet(0); b >= 0; b = inc.staged.NextSet((b/bps + 1) * bps) {
		if inc.cutSegs.Test(b / bps) {
			return b / bps
		}
	}
	for s := inc.cutSegs.NextSet(0); s >= 0; s = inc.cutSegs.NextSet(s + 1) {
		if _, scheduled := inc.segCost[s]; scheduled {
			return s
		}
	}
	return -1
}

// incFinish closes the pipeline: metadata is re-sealed (the epoch's last
// metadata mutation is behind us) and every write-path guard vanishes. The
// drained state is kept for the next cut to reuse.
func (c *Container) incFinish() {
	c.meta.Seal()
	c.incFree, c.inc = c.inc, nil
	c.lastBlk = -1
}

// CheckpointFinish drains every remaining quantum of an in-flight
// incremental checkpoint's replay immediately. It is an error before
// CheckpointCommit (the caller owns the commit decision) and a no-op when
// the pipeline is idle.
func (c *Container) CheckpointFinish() error {
	if c.opts.Concurrent {
		c.writeMu.Lock()
		defer c.writeMu.Unlock()
	}
	if c.inc != nil && c.inc.phase == incFlush {
		return errors.New("core: CheckpointFinish before CheckpointCommit")
	}
	c.drainReplay()
	return nil
}

// drainReplay retires whatever is left of a replay, at once.
func (c *Container) drainReplay() {
	for c.inc != nil {
		c.checkpointStepLocked(-1)
	}
}

// finishDeferred drains a deferred replay a checkpoint finds unfinished: the
// copies are the closing epoch's to make (afterwards the backups they
// overwrite are that epoch's rollback target) and the staged stores must be
// dirty before the flush that commits them.
func (c *Container) finishDeferred() {
	if c.inc != nil {
		c.rec.Count("ckpt/deferred_drained_bytes", int64(c.inc.replayRem))
		c.drainReplay()
	}
}

// DeferCoW moves the new epoch's copy-on-write behind its first stores. Every
// clean segment that owes one — checkpoint state in the main region, and
// either blocks its paired backup lacks or no pair while a free backup is
// left — is quarantined and its copy scheduled as replay work: stores into it
// go through the pipeline's write barrier (image aside, store staged in cache
// only) instead of copying the segment inline, and StepCoW retires the copies
// in the caller's idle gaps. It reports whether a replay was scheduled.
//
// What the copies overwrite is the backups, the previous epoch's state, so
// the call is legal exactly where eager copy-on-write is: once no recovery
// can land on that epoch any more — for a coordinated caller, after the
// barrier that follows the commit. A crash inside the replay is a crash
// inside a copy-on-write: a segment's state entry stays SS_Main until its
// flip fence, its staged stores never left the cache, and recovery re-syncs
// the pair from main.
//
// Scheduling takes no backup and reserves none. A free one counted here may
// go to an inline copy-on-write before the replay reaches its segment, a
// quarantined segment's redundant pair to a steal: the replay then drops the
// segment rather than steal for it (replayQuantum), so a deferral never costs
// a clean segment its pair, nor a store a backup it would have found with the
// copies inline.
//
// Deferral pays only if the caller has idle time to retire the copies in —
// it costs more than the inline copy it replaces (a fence per quantum, an
// aside image and a lift per staged block), and what is left at the next
// checkpoint is drained inside it, where every rank of a coordinated caller
// waits — so it is gated on what the caller's idle time since the last call
// had room for: the gaps StepCoW was shown, each converted when it was shown
// into the bytes a quantum would have retired in it (near saturation idle
// time comes in slivers no block fits), plus idlePS, idle time the caller
// knows it had that no gap showed — forever, for one that is not serving
// anything yet. Those gaps already have a tenant, the early write-back of the
// blocks the epoch dirties (PreFlush), in steady state as many as the replay
// copies, and a replay that takes the gaps first pushes that flush back into
// the checkpoint: so the room must cover, by the cost model, both — and
// deferMarginPct of it.
//
// Default mode only; inert while a checkpoint's pipeline or another replay
// is in flight and inside a write-through scope.
func (c *Container) DeferCoW(idlePS int64) bool {
	if c.opts.Concurrent {
		c.writeMu.Lock()
		defer c.writeMu.Unlock()
	}
	room := c.gapBytes + c.replayFit(idlePS)
	c.gapBytes = 0
	if c.opts.Mode == ModeBuffered || c.inc != nil || c.wt {
		return false
	}
	inc := c.takeIncState()
	inc.phase, inc.deferred = incReplay, true
	e := int(c.meta.CommittedEpoch() % 2)
	bps := c.l.BlocksPerSeg()
	free := len(c.freeBackups)
	for s := 0; s < c.l.NMain; s++ {
		if c.dirtySegs.Test(s) || c.meta.SegState(e, s) != region.SSMain {
			continue
		}
		if c.mainToBackup[s] == region.NoPair {
			if free == 0 {
				continue
			}
			free--
		} else if c.dirtyBlocks.NextSetInRange(s*bps, (s+1)*bps) < 0 {
			continue
		}
		inc.cutSegs.Set(s)
		c.scheduleReplay(inc, s)
	}
	copyPS, flushPS := c.replayBlockPS(), c.flushBlockPS()
	if need := int64(inc.replayRem) * (copyPS + flushPS) / copyPS * deferMarginPct / 100; need == 0 || need > room {
		c.incFree = inc
		return false
	}
	c.rec.Count("ckpt/deferred_cow_bytes", int64(inc.replayRem))
	c.inc = inc
	c.lastBlk = -1
	return true
}

// deferMarginPct is the margin of DeferCoW's gate over what the cost model
// says the idle time must have had room for. It is measured, not derived
// (EXPERIMENTS.md, "Copying behind the cut", has the table): the middle of
// the window two workloads leave. At 100 a shard at the knee of its load
// curve defers, starves its pre-flush and stretches a pause every rank waits
// out (crpmbench -exp slo, Default/interval at 8 Mops/s: open p99 225 -> 250
// us). At 150 a shard with a third of its time idle no longer defers (the
// repo benchmark's geometry at 3 Mops/s offered: open p99 1.0 -> 385 us).
// Every value tried from 105 to 145 reads the same on both. One rung is
// knowingly left outside: the same geometry at 3.5 Mops/s keeps its copies
// inline (open p99 442 us, as without deferral; deferring every cut there
// reads 1.6 us) — what the gate goes by is the epoch behind it, and no margin
// kept that rung without losing the knee.
const deferMarginPct = 125

// StepCoW is a deferred replay's quantum for a caller that knows only "I am
// idle for gapPS": it retires as much of the replay as the cost model says
// fits — never less than one block, so the replay always progresses and the
// arrival behind the gap waits for at most one block and its fences; never
// more than replayQuantumCap, however long the gap — and returns the bytes
// still pending. A caller with no arrival ahead of it at all, because it is
// not serving anything yet, passes no gap (gapPS <= 0, as CheckpointStep's
// budget): the whole replay is retired at once, traced as the pre-copy it
// then is rather than as quanta that stall a serving loop.
//
// Every gap shown is also measured, work pending or not — no stretch of time
// twice, if gaps overlap — for DeferCoW's gate to go by.
func (c *Container) StepCoW(gapPS int64) int {
	if c.opts.Concurrent {
		c.writeMu.Lock()
		defer c.writeMu.Unlock()
	}
	if c.opts.Mode == ModeBuffered {
		return 0
	}
	if now := c.dev.Clock().NowPS(); gapPS > 0 && now+gapPS > c.gapEndPS {
		// No replay ever owes more than the heap.
		c.gapBytes += min(c.replayFit(now+gapPS-max(now, c.gapEndPS)), int64(c.l.HeapSize()))
		c.gapEndPS = now + gapPS
	}
	if c.inc == nil || !c.inc.deferred {
		return 0
	}
	if gapPS <= 0 {
		return c.replayStep("pre-copy", -1)
	}
	budget := min(max(c.replayFit(gapPS), int64(c.l.BlkSize)), c.replayQuantumCap())
	return c.checkpointStepLocked(int(budget))
}

// replayFenceShare sets replayQuantumCap: the quantum at which its one fence
// is a hundredth of it. The ratio is chosen, not derived: 100 puts the cap at
// 64 blocks of 256 B at the default cost model, a quantum of 15 us — under
// the stop-the-world pause the same caller takes at every cut (18.6 us at the
// repo benchmark's geometry), so no ckpt-replay span is the longest stall of
// a run — while the fences stay 1 % of the replay.
const replayFenceShare = 100

// replayQuantumCap bounds a quantum however long the gap it was shown. Past
// it a longer quantum saves next to nothing, and a gap's end is only the
// arrival the caller knows of: a traffic-less rank of a sharded server is
// shown its whole batch window, milliseconds, and every quantum is on record
// as a stall of its serving loop.
func (c *Container) replayQuantumCap() int64 {
	return replayFenceShare * c.dev.Cost().SFencePS / c.replayBlockPS() * int64(c.l.BlkSize)
}

// replayFit is the replay work, in bytes, a quantum sized to end within ps
// from now retires: the cost model bounds a block from above — its read from
// the media, its non-temporal write and its lines' drain at the fence (an
// aside image is cheaper to read, a lift cheaper than either) — and the
// quantum's fence, with whatever is pending at the device already. The second
// fence, the pairing entry and the state flip of a quantum that completes a
// segment are not reserved: one quantum in thousands pays them, and reserving
// them in every gap of a microsecond would halve what fits.
func (c *Container) replayFit(ps int64) int64 {
	cost := c.dev.Cost()
	ps -= cost.SFencePS + int64(c.dev.PendingLineCount())*cost.SFenceLinePS
	return max(ps/c.replayBlockPS(), 0) * int64(c.l.BlkSize)
}

// replayBlockPS bounds from above what one block costs a replay quantum.
func (c *Container) replayBlockPS() int64 {
	cost := c.dev.Cost()
	blk := int64(c.l.BlkSize)
	return blk*(cost.NVMReadBytePS+cost.NVMWriteBytePS) + blk/nvm.LineSize*cost.SFenceLinePS
}

// CheckpointInFlight reports whether an incremental checkpoint is open.
func (c *Container) CheckpointInFlight() bool {
	if c.opts.Concurrent {
		c.writeMu.Lock()
		defer c.writeMu.Unlock()
	}
	return c.inc != nil
}

// NextWriteEpoch returns the epoch a store issued now will commit in:
// the live epoch, one past the committed cut — or one further while an
// in-flight incremental cut has drawn its boundary but not yet committed,
// since the write barrier diverts such stores past the cut. Session
// layers use it to stamp each write with the cut that makes it durable.
func (c *Container) NextWriteEpoch() uint64 {
	if c.opts.Concurrent {
		c.writeMu.Lock()
		defer c.writeMu.Unlock()
	}
	e := c.meta.CommittedEpoch() + 1
	if c.inc != nil && c.inc.phase == incFlush {
		e++
	}
	return e
}

// PendingCutBytes is the flush/copy footprint a CheckpointBegin issued now
// would capture — what a dirty-rate-adaptive cut policy budgets against.
// Unlike DirtyInfo it counts the buffered mode's pending replica blocks,
// which the cut must copy even when untouched this epoch.
func (c *Container) PendingCutBytes() int {
	if c.opts.Concurrent {
		c.writeMu.Lock()
		defer c.writeMu.Unlock()
	}
	if c.opts.Mode != ModeBuffered {
		return c.pendingDefault()
	}
	bps := c.l.BlocksPerSeg()
	blocks := 0
	eIdx := int(c.meta.CommittedEpoch() % 2)
	for s := c.dirtySegs.NextSet(0); s >= 0; s = c.dirtySegs.NextSet(s + 1) {
		pend := c.pendingMain
		if c.meta.SegState(eIdx, s) == region.SSMain {
			pend = c.pendingBackup
		}
		lo, hi := s*bps, (s+1)*bps
		blocks += c.curDirty.CountRange(lo, hi)
		for b := pend.NextSetInRange(lo, hi); b >= 0; b = pend.NextSetInRange(b+1, hi) {
			if !c.curDirty.Test(b) {
				blocks++
			}
		}
	}
	return blocks * c.l.BlkSize
}

// incOnWriteDefault is the default-mode write barrier while a checkpoint
// is in flight, replacing OnWrite's normal bookkeeping. Stores into
// quarantined segments first retire the block's pending cut flush in
// place (flush-before-write: the block still holds its cut-boundary
// value), then capture that image aside and mark the block staged — the
// upcoming Write lands in cache only. Stores elsewhere take the ordinary
// next-epoch copy-on-write path.
func (c *Container) incOnWriteDefault(inc *incState, off, n int) {
	clock := c.dev.Clock()
	blk := c.l.BlkSize
	firstSeg, lastSeg := c.l.SegOf(off), c.l.SegOf(off+n-1)
	for s := firstSeg; s <= lastSeg; s++ {
		if !inc.cutSegs.Test(s) && !c.dirtySegs.Test(s) {
			c.copyOnWrite(s)
		}
	}
	first, last := c.l.BlockOf(off), c.l.BlockOf(off+n-1)
	bps := c.l.BlocksPerSeg()
	for b := first; b <= last; b++ {
		s := b / bps
		if !inc.cutSegs.Test(s) {
			if c.noteDirty(b) {
				c.dev.ChargeHook()
				c.metrics.TraceEvents++
			} else {
				clock.Advance(c.dev.Cost().HookPS / 4)
			}
			continue
		}
		if inc.phase == incFlush && inc.cutBlocks.Test(b) {
			cat := clock.SetCategory(nvm.CatCheckpoint)
			c.dev.FlushRange(c.l.HeapToDevice(b*blk), blk)
			clock.SetCategory(cat)
			inc.cutBlocks.Clear(b)
			inc.remaining -= blk
		}
		if inc.staged.Set(b) {
			devOff := c.l.HeapToDevice(b * blk)
			inc.captureAside(b, c.dev.Working()[devOff:devOff+blk])
			c.dev.ChargeDRAMCopy(blk)
			c.dev.ChargeHook()
			c.metrics.TraceEvents++
			if inc.phase == incReplay {
				if _, seen := inc.segCost[s]; !seen && s != inc.rSeg {
					// First staged store into this segment after the
					// commit: its replay was not yet scheduled.
					c.scheduleReplay(inc, s)
				}
			}
		} else {
			clock.Advance(c.dev.Cost().HookPS / 4)
		}
	}
}

// incOnWriteBuffered captures cut-boundary images for buffered-mode
// blocks whose cut copy has not retired yet; the caller then runs the
// normal bookkeeping (the new store is ordinary next-epoch dirt).
func (c *Container) incOnWriteBuffered(inc *incState, first, last int) {
	blk := c.l.BlkSize
	for b := first; b <= last; b++ {
		if !inc.cutBlocks.Test(b) {
			continue
		}
		if _, ok := inc.aside[b]; ok {
			continue
		}
		inc.captureAside(b, c.buf[b*blk:(b+1)*blk])
		c.dev.ChargeDRAMCopy(blk)
	}
}

// incWrite performs the store for a default-mode write that overlaps
// quarantined segments: staged pieces go to cache only (working state,
// never marked dirty, so they cannot reach the media before the replay),
// pieces outside the quarantine take the normal store path.
func (c *Container) incWrite(inc *incState, off int, src []byte) {
	for len(src) > 0 {
		s := c.l.SegOf(off)
		n := len(src)
		if end := (s + 1) * c.l.SegSize; off+n > end {
			n = end - off
		}
		base := c.l.HeapToDevice(off)
		if inc.cutSegs.Test(s) {
			copy(c.dev.Working()[base:base+n], src[:n])
			c.dev.ChargeDRAMWrite(n)
		} else {
			c.dev.Write(base, src[:n])
		}
		off += n
		src = src[n:]
	}
}

// incReserved reports whether the in-flight pipeline still depends on
// segment s's backup, so that backup stealing must skip it: staged stores
// are waiting in s for their lift (evacuating its backup would overwrite the
// cache-only values in working main), or its copy is done and its state flip
// waits for the quantum's fences, or it is quarantined and its backup holds
// or is becoming the cut's committed state. A deferred replay's quarantine
// commits nothing: short of the segment being copied right now, a backup in
// it is as redundant as it would be with the copy inline, and as stealable
// (the replay then drops the segment: replayQuantum).
func (c *Container) incReserved(s int) bool {
	inc := c.inc
	if inc == nil {
		return false
	}
	if inc.staged != nil {
		bps := c.l.BlocksPerSeg()
		if inc.staged.NextSetInRange(s*bps, (s+1)*bps) >= 0 || slices.Contains(inc.completed, s) {
			return true
		}
		if inc.deferred {
			return s == inc.rSeg
		}
	}
	return inc.cutSegs.Test(s)
}

// incSpansQuarantine reports whether [off, off+n) overlaps a quarantined
// segment (Write's fast-path test).
func (c *Container) incSpansQuarantine(off, n int) bool {
	for s, last := c.l.SegOf(off), c.l.SegOf(off+n-1); s <= last; s++ {
		if c.inc.cutSegs.Test(s) {
			return true
		}
	}
	return false
}
