package core

import (
	"errors"
	"math"
	"slices"

	"libcrpm/internal/bitmap"
	"libcrpm/internal/nvm"
)

// Write-through scopes move a burst's flush ahead of the checkpoint, into
// time the caller knows to be idle: every block stored between
// BeginWriteThrough and EndWriteThrough is flushed in place and fenced once
// at the end of the scope, and the next checkpoint skips it unless a later
// store touched it again.
//
// Writing the main region back early is already legal in this protocol:
// copy-on-write parks a segment's committed state in its backup before the
// segment's first store of the epoch, so nothing recovery reads lives in the
// lines a scope flushes — and the crash model evicts dirty lines
// spontaneously anyway. The one new invariant is the skip: a block marked in
// pre holds, durably, exactly its working content, because the scope fenced
// it and every store since would have gone through OnWrite, which clears the
// mark. pre therefore stays a subset of the dirty blocks of the epoch's
// dirty segments, and is emptied wherever those are (checkpoint, recovery).
//
// Scopes are inert in buffered mode (the working state is DRAM; there is
// nothing to write back in place) and while an incremental checkpoint is in
// flight (the write barrier owns every store and the pipeline already
// budgets the flush). They do not nest. During a deferred replay (DeferCoW)
// no cut is in flight and they stay live for everything outside the
// quarantine: a store staged inside it is not dirty, so it is neither a
// scope's to flush nor a mark's to cover until its lift, which goes through
// the same bookkeeping as a store (noteDirty).
//
// PreFlush is the same early write-back for a caller that has no burst to
// bracket, only idle time of a known length: it picks the blocks itself —
// the ones dirty longest — and flushes, fences and marks them through the
// same body, under the same invariant. Once a PreFlush has armed the queue,
// a scope's close also takes that backlog, all of it, beside its own blocks
// and under its one fence: a caller whose idle time went to a scope would
// otherwise leave the backlog to the cut.

var errWriteThroughOpen = errors.New("core: checkpoint inside a write-through scope")

// BeginWriteThrough opens a write-through scope.
func (c *Container) BeginWriteThrough() {
	if c.opts.Concurrent {
		c.writeMu.Lock()
		defer c.writeMu.Unlock()
	}
	if c.wtInert() {
		return
	}
	if c.pre == nil {
		c.pre = bitmap.New(c.l.TotalBlocks())
	}
	c.wt, c.wtOn = true, true
	// The memo would hide the scope's first store to the remembered block.
	c.lastBlk = -1
}

// EndWriteThrough closes the scope: the blocks stored inside it, and the
// aged blocks PreFlush would take next, are flushed in ascending runs, one
// fence makes them durable, and they are marked for the next checkpoint to
// skip.
func (c *Container) EndWriteThrough() {
	if c.opts.Concurrent {
		c.writeMu.Lock()
		defer c.writeMu.Unlock()
	}
	if !c.wt {
		return
	}
	c.wt = false
	// From here on a store to a marked block must reach the slow path.
	c.lastBlk = -1
	c.wtBlks = c.agedBlocks(c.wtBlks, math.MaxInt, c.preLag)
	if len(c.wtBlks) > 0 {
		c.writeBack(c.wtBlks, "write-through")
		c.wtBlks = c.wtBlks[:0]
	}
	c.wtOn = c.pre.Any()
}

// writeBack is the one body behind both ways of flushing ahead of the cut:
// blks (sorted and deduplicated here) are flushed in place in ascending
// runs, one fence makes them durable, and they are marked for the next
// checkpoint to skip. It leaves the write hook's memo alone; callers reset
// it, since a store to a block marked here must reach the slow path.
func (c *Container) writeBack(blks []int, span string) {
	slices.Sort(blks)
	blks = slices.Compact(blks)
	clock := c.dev.Clock()
	prev := clock.SetCategory(nvm.CatCheckpoint)
	c.rec.Begin(span)
	blk := c.l.BlkSize
	for i := 0; i < len(blks); {
		j := i + 1
		for j < len(blks) && blks[j] == blks[j-1]+1 {
			j++
		}
		c.flushRun(blks[i], blks[i]+j-i)
		i = j
	}
	c.dev.SFence()
	c.rec.End()
	clock.SetCategory(prev)
	for _, b := range blks {
		c.pre.Set(b)
	}
	c.metrics.CheckpointBytes += int64(len(blks) * blk)
}

// preFlushLag is how many of the youngest queue entries PreFlush leaves to
// the checkpoint. A block stored over and over would otherwise be written
// back after every store; behind a lag, only blocks that have gone cold
// since they were dirtied are. The checkpoint then flushes what the lag held
// back, so the lag is the residual pause: 256 is the measured knee
// (EXPERIMENTS.md, "Flushing ahead of the cut") — a 19 µs flush against a
// third more checkpoint bytes; 0 buys the last 18 µs with twice the bytes,
// 1 024 gives back half the pause. A constant, not configuration: no load
// measured wants another value.
const preFlushLag = 256

// Forever is a point on the simulated clock no run reaches: a caller idle
// until then is idle for good.
const Forever = 1 << 60

// PreFlush writes back, oldest first, as many dirty blocks the next
// checkpoint would otherwise flush as provably fit into budgetPS of
// simulated time — one fence included, so the caller's clock never passes
// now+budgetPS — and marks them as a closed scope would. It is how a caller
// that knows only "I am idle until T" moves the checkpoint's flush into that
// idle time. A budget below one block and a fence issues no primitive.
//
// The youngest preFlushLag blocks are left to the checkpoint, since a later
// store may dirty them again — unless the idle time never ends (now+budgetPS
// reaches Forever): with no later store to come, PreFlush takes them too, and
// leaves the checkpoint that follows nothing it has queued.
//
// Which blocks are oldest comes from preQ, a queue of hints in the order
// blocks became dirty-and-unmarked, filled by the write hook from the first
// PreFlush on. A popped entry is acted on only if the block still is dirty,
// in a segment dirty this epoch, and unmarked; nothing else is ever read from
// the queue, so a stale, duplicated or missing entry costs at most a flush
// left to the checkpoint.
//
// Inert in buffered mode, while an incremental checkpoint is in flight, and
// inside an open scope, as scopes themselves are.
func (c *Container) PreFlush(budgetPS int64) {
	if c.opts.Concurrent {
		c.writeMu.Lock()
		defer c.writeMu.Unlock()
	}
	if c.wtInert() || c.wt {
		return
	}
	if c.pre == nil {
		c.pre = bitmap.New(c.l.TotalBlocks())
	}
	c.preOn = true
	lag := c.preLag
	if budgetPS >= Forever-c.dev.Clock().NowPS() {
		lag = 0
	}
	// The cost model bounds a quantum from above: every line of a block
	// costs at most one dirty CLWB and one line drained at the fence, and the
	// fence its base plus whatever is pending already.
	cost := c.dev.Cost()
	budgetPS -= cost.SFencePS + int64(c.dev.PendingLineCount())*cost.SFenceLinePS
	// wtBlks is empty outside a scope: shared scratch.
	blks := c.agedBlocks(c.wtBlks[:0], int(budgetPS/c.flushBlockPS()), lag)
	if len(blks) == 0 {
		return
	}
	c.writeBack(blks, "pre-flush")
	c.wtBlks = blks[:0]
	c.lastBlk = -1
	c.wtOn = true
}

// agedBlocks appends to blks up to n of the blocks early write-back may
// take from preQ, oldest first: entries older than the youngest lag, for a
// block still dirty, in a segment dirty this epoch, and unmarked. Entries
// it pops that fail the test are dropped.
func (c *Container) agedBlocks(blks []int, n, lag int) []int {
	bps := c.l.BlocksPerSeg()
	for k := 0; k < n && len(c.preQ)-c.preHead > lag; {
		b := c.preQ[c.preHead]
		c.preHead++
		if c.pre.Test(b) || !c.dirtyBlocks.Test(b) || !c.dirtySegs.Test(b/bps) {
			continue
		}
		blks = append(blks, b)
		k++
	}
	return blks
}

// wtInert reports whether early write-back has nothing to do or no right to
// do it: buffered mode, and an incremental checkpoint in flight.
func (c *Container) wtInert() bool {
	return c.opts.Mode == ModeBuffered || (c.inc != nil && !c.inc.deferred)
}

// noteDirty is the write hook's bookkeeping for one block dirtied outside
// the hook's own loop — by a store the write barrier let through, or by the
// lift that turns a staged store into an ordinary one: the block is marked
// dirty (reporting a first touch), queued for PreFlush, and whatever early
// write-back had marked it is void.
func (c *Container) noteDirty(b int) bool {
	first := c.dirtyBlocks.Set(b)
	if first && c.preOn {
		c.preQ = append(c.preQ, b)
	}
	if c.wtOn {
		c.wtNote(b, b)
	}
	return first
}

// flushBlockPS bounds from above what one block costs an early write-back:
// every line a dirty CLWB and a line drained at the fence.
func (c *Container) flushBlockPS() int64 {
	cost := c.dev.Cost()
	return int64(c.l.BlkSize/nvm.LineSize) * (cost.CLWBPS + cost.SFenceLinePS)
}

// wtNote is OnWrite's write-through bookkeeping for a store to blocks
// [first, last], reached only while a scope is open or marked blocks exist:
// the store invalidates the blocks' marks, and an open scope owes them a
// flush.
func (c *Container) wtNote(first, last int) {
	for b := first; b <= last; b++ {
		unmarked := c.pre.Clear(b)
		if c.wt {
			c.wtBlks = append(c.wtBlks, b)
		} else if unmarked && c.preOn {
			c.preQ = append(c.preQ, b)
		}
	}
	c.wtOn = c.wt || c.pre.Any()
}

// wtForget drops every mark, wherever the dirty state they refine is
// cleared.
func (c *Container) wtForget() {
	if c.pre != nil {
		c.pre.ClearAll()
	}
	c.wt, c.wtOn = false, false
	c.wtBlks = c.wtBlks[:0]
	c.preQ, c.preHead = c.preQ[:0], 0
}
