package core

import (
	"errors"
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
// budgets the flush). They do not nest.

var errWriteThroughOpen = errors.New("core: checkpoint inside a write-through scope")

// BeginWriteThrough opens a write-through scope.
func (c *Container) BeginWriteThrough() {
	if c.opts.Concurrent {
		c.writeMu.Lock()
		defer c.writeMu.Unlock()
	}
	if c.opts.Mode == ModeBuffered || c.inc != nil {
		return
	}
	if c.pre == nil {
		c.pre = bitmap.New(c.l.TotalBlocks())
	}
	c.wt, c.wtOn = true, true
	// The memo would hide the scope's first store to the remembered block.
	c.lastBlk = -1
}

// EndWriteThrough closes the scope: the blocks stored inside it are flushed
// in ascending runs, one fence makes them durable, and they are marked for
// the next checkpoint to skip.
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
	if len(c.wtBlks) > 0 {
		slices.Sort(c.wtBlks)
		blks := slices.Compact(c.wtBlks)
		clock := c.dev.Clock()
		prev := clock.SetCategory(nvm.CatCheckpoint)
		c.rec.Begin("write-through")
		blk := c.l.BlkSize
		for i := 0; i < len(blks); {
			j := i + 1
			for j < len(blks) && blks[j] == blks[j-1]+1 {
				j++
			}
			c.dev.FlushRange(c.l.HeapToDevice(blks[i]*blk), (j-i)*blk)
			i = j
		}
		c.dev.SFence()
		c.rec.End()
		clock.SetCategory(prev)
		for _, b := range blks {
			c.pre.Set(b)
		}
		c.metrics.CheckpointBytes += int64(len(blks) * blk)
		c.rec.Count("ckpt/write_through_bytes", int64(len(blks)*blk))
		c.wtBlks = c.wtBlks[:0]
	}
	c.wtOn = c.pre.Any()
}

// wtNote is OnWrite's write-through bookkeeping for a store to blocks
// [first, last], reached only while a scope is open or marked blocks exist:
// the store invalidates the blocks' marks, and an open scope owes them a
// flush.
func (c *Container) wtNote(first, last int) {
	for b := first; b <= last; b++ {
		c.pre.Clear(b)
		if c.wt {
			c.wtBlks = append(c.wtBlks, b)
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
}

// flushBlocks flushes main-region blocks [b0, b1) in place, leaving out the
// ones a write-through scope already made durable.
func (c *Container) flushBlocks(b0, b1 int) {
	blk := c.l.BlkSize
	if !c.wtOn {
		c.dev.FlushRange(c.l.HeapToDevice(b0*blk), (b1-b0)*blk)
		return
	}
	for b0 < b1 {
		if c.pre.Test(b0) {
			b0++
			continue
		}
		e := b0 + 1
		for e < b1 && !c.pre.Test(e) {
			e++
		}
		c.dev.FlushRange(c.l.HeapToDevice(b0*blk), (e-b0)*blk)
		b0 = e
	}
}
