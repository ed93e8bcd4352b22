package core

import (
	"errors"

	"libcrpm/internal/bitmap"
	"libcrpm/internal/nvm"
	"libcrpm/internal/region"
)

// Checkpoint ends the current epoch: the present working state becomes the
// committed checkpoint state, failure-atomically (§3.4.2, Figure 6 lines
// 26-44). On return the container is ready for the next epoch.
func (c *Container) Checkpoint() error {
	end, err := c.beginCut("checkpoint")
	if err != nil {
		return err
	}
	defer end()
	if c.opts.Mode == ModeBuffered {
		return c.checkpointBuffered()
	}
	return c.checkpointDefault()
}

// beginCut is the prologue of every cut, monolithic or incremental: it
// refuses one while another is in flight or a write-through scope is open,
// opens a span of checkpoint-category time (closed by the returned func),
// and finishes a deferred replay the cut finds unfinished.
func (c *Container) beginCut(span string) (end func(), err error) {
	if c.inc != nil && !c.inc.deferred {
		return nil, errors.New("core: checkpoint with an incremental checkpoint in flight")
	}
	if c.wt {
		return nil, errWriteThroughOpen
	}
	clock := c.dev.Clock()
	prev := clock.SetCategory(nvm.CatCheckpoint)
	c.rec.Begin(span)
	c.finishDeferred()
	// The cut clears dirty state (including eager CoW's per-segment resets),
	// so the OnWrite last-hit memo is stale from here on.
	c.lastBlk = -1
	return func() {
		c.rec.End()
		clock.SetCategory(prev)
	}, nil
}

func (c *Container) checkpointDefault() error {
	// Step 1: persist every block modified this epoch, in place, in the
	// main region. Below the LLC threshold a clwb loop over dirty blocks is
	// cheaper; above it, one wbinvd writes the whole cache back (§3.4.2).
	c.rec.Begin("dirty-scan")
	dirtyBytes := c.pendingDefault()
	c.rec.End()
	c.rec.Begin("flush")
	if dirtyBytes < c.opts.LLCSize {
		c.cutRuns(c.flushRun)
	} else {
		c.dev.WBINVD()
	}
	c.rec.End()
	c.rec.Begin("fence")
	c.dev.SFence()
	c.rec.End()
	c.metrics.CheckpointBytes += int64(dirtyBytes)
	c.rec.Count("ckpt/dirty_bytes", int64(dirtyBytes))

	// Step 2: every segment written this epoch holds its checkpoint state in
	// the main region now.
	neIdx := c.commitEpoch(func(neIdx int) {
		for s := c.dirtySegs.NextSet(0); s >= 0; s = c.dirtySegs.NextSet(s + 1) {
			c.meta.SetSegState(neIdx, s, region.SSMain)
		}
	})

	// Step 3 (optional): if few segments were dirty, run their next-epoch
	// copy-on-write right now, batched under two fences instead of two per
	// segment (§3.4.2).
	if c.opts.EagerCoWSegments >= 0 && c.dirtySegs.Count() > 0 && c.dirtySegs.Count() < c.opts.EagerCoWSegments {
		c.rec.Begin("eager-cow")
		c.eagerCoW(neIdx)
		c.rec.End()
	}
	// With metadata checksums, the epoch's last metadata mutation is behind
	// us: re-seal so the whole-structure CRCs become authoritative again.
	c.meta.Seal()
	c.dirtySegs.ClearAll()
	c.wtForget()
	c.metrics.Epochs++
	return nil
}

// cutRuns calls fn for every run [b0, b1) of adjacent blocks in the
// default-mode cut set, ascending: the one definition of what a cut taken now
// owes a flush. That is the dirty blocks of the segments written this epoch,
// less the ones early write-back already made durable (pre): the cut owes
// them no flush, and an incremental cut's write barrier no flush-before-write.
// Runs of adjacent blocks map to contiguous device ranges (the heap is
// contiguous in the main region), so a flush takes a run at a time.
func (c *Container) cutRuns(fn func(b0, b1 int)) {
	run := fn
	if c.wtOn {
		run = func(b0, b1 int) {
			for b0 < b1 {
				if c.pre.Test(b0) {
					b0++
					continue
				}
				e := b0 + 1
				for e < b1 && !c.pre.Test(e) {
					e++
				}
				fn(b0, e)
				b0 = e
			}
		}
	}
	bps := c.l.BlocksPerSeg()
	for s := c.dirtySegs.NextSet(0); s >= 0; s = c.dirtySegs.NextSet(s + 1) {
		c.dirtyBlocks.ForEachRunInRange(s*bps, (s+1)*bps, run)
	}
}

// pendingDefault is the size of the default-mode cut set in bytes.
func (c *Container) pendingDefault() int {
	blocks := 0
	c.cutRuns(func(b0, b1 int) { blocks += b1 - b0 })
	return blocks * c.l.BlkSize
}

// flushRun flushes main-region blocks [b0, b1) in place.
func (c *Container) flushRun(b0, b1 int) {
	c.dev.FlushRange(c.l.HeapToDevice(b0*c.l.BlkSize), (b1-b0)*c.l.BlkSize)
}

// commitEpoch atomically switches the checkpoint state, the second step of
// Figure 6's checkpoint (lines 26-44) and the one commit every cut style
// issues: the inactive segment state array receives the active one's states
// and, through set, the cut's, and is made durable; then the committed epoch
// counter flips which array is active. It returns the now-active index.
func (c *Container) commitEpoch(set func(neIdx int)) int {
	c.rec.Begin("commit")
	e := c.meta.CommittedEpoch()
	eIdx, neIdx := int(e%2), int((e+1)%2)
	c.meta.CopySegStateArray(neIdx, eIdx)
	set(neIdx)
	c.meta.FlushSegStateArray(neIdx)
	c.dev.SFence()
	c.meta.SetCommittedEpoch(e + 1)
	c.dev.SFence()
	c.rec.End()
	return neIdx
}

// eagerCoW pre-copies every dirty segment's differential blocks into its
// backup during the checkpoint period, so next epoch's first writes skip
// their per-segment fences. All copies share one fence; all state flips
// share another.
func (c *Container) eagerCoW(activeIdx int) {
	var flips []int
	for s := c.dirtySegs.NextSet(0); s >= 0; s = c.dirtySegs.NextSet(s + 1) {
		if c.meta.SegState(activeIdx, s) != region.SSMain {
			continue
		}
		backup, hadPair, ok := c.tryFindPairedBackup(s)
		if !ok {
			// No backup available right now; the segment's CoW happens
			// lazily next epoch, when committed pairs become stealable.
			continue
		}
		c.copyToBackup(s, backup, hadPair)
		flips = append(flips, s)
	}
	if len(flips) > 0 {
		c.flipToBackup(activeIdx, flips...)
	}
}

// incPlan is where buffered mode commits one segment: the region that
// receives the copy and the state the commit flips the segment to.
type incPlan struct {
	targetOff int
	newState  region.SegState // SS_Backup: the target is the backup region
}

// bufferedTarget decides which region receives segment s's commit (§3.5):
// the one that does not hold its committed copy, pairing a backup if the
// committed copy lives in main and the segment has none.
func (c *Container) bufferedTarget(eIdx, s int) incPlan {
	if c.meta.SegState(eIdx, s) != region.SSMain {
		// The committed copy lives in the backup — or nowhere yet
		// (SSInitial): the first commit of a segment goes to main.
		return incPlan{targetOff: c.l.MainOff(s), newState: region.SSMain}
	}
	backup, hadPair := c.findPairedBackup(s)
	if !hadPair {
		// Unknown backup content (stolen or post-recovery pair): schedule a
		// full-segment copy. A virgin backup is zero, exactly what the
		// pending bitmaps assume.
		if !c.virginBackups.Test(int(backup)) {
			bps := c.l.BlocksPerSeg()
			c.pendingBackup.SetRange(s*bps, (s+1)*bps)
		}
		c.virginBackups.Clear(int(backup))
		c.meta.SetBackupToMain(int(backup), uint32(s))
	}
	return incPlan{targetOff: c.l.BackupOff(int(backup)), newState: region.SSBackup}
}

// pending returns the bitmap of the blocks p's target region lacks, and the
// other region's.
func (c *Container) pending(p incPlan) (pend, other *bitmap.Set) {
	if p.newState == region.SSBackup {
		return c.pendingBackup, c.pendingMain
	}
	return c.pendingMain, c.pendingBackup
}

// copyBuffered writes block b's image to p's target region and rebooks it:
// the target no longer lacks the block, and the other region now does if the
// block was written in the epoch being committed (cur).
func (c *Container) copyBuffered(p incPlan, b int, src []byte, cur bool) {
	c.dev.ChargeDRAMCopy(c.l.BlkSize)
	c.dev.NTStore(p.targetOff+b%c.l.BlocksPerSeg()*c.l.BlkSize, src)
	pend, other := c.pending(p)
	pend.Clear(b)
	if cur {
		other.Set(b)
	}
}

func (c *Container) checkpointBuffered() error {
	eIdx := int(c.meta.CommittedEpoch() % 2)
	bps, blk := c.l.BlocksPerSeg(), c.l.BlkSize
	copied := 0
	c.rec.Begin("copy")

	type flip struct {
		s  int
		st region.SegState
	}
	var flips []flip
	for s := c.dirtySegs.NextSet(0); s >= 0; s = c.dirtySegs.NextSet(s + 1) {
		p := c.bufferedTarget(eIdx, s)
		pend, _ := c.pending(p)
		// Copy every block the target region lacks: blocks written this
		// epoch plus blocks the region missed while the other was current.
		// Iterate the union of the two bitmaps with an ascending two-cursor
		// merge so clean blocks are skipped at word granularity. Clearing
		// pend at b is safe: the pend cursor has already advanced past b.
		hi := (s + 1) * bps
		nc, np := c.curDirty.NextSetInRange(s*bps, hi), pend.NextSetInRange(s*bps, hi)
		for nc >= 0 || np >= 0 {
			var b int
			if np < 0 || (nc >= 0 && nc <= np) {
				b = nc
				if nc == np {
					np = pend.NextSetInRange(np+1, hi)
				}
				nc = c.curDirty.NextSetInRange(nc+1, hi)
			} else {
				b = np
				np = pend.NextSetInRange(np+1, hi)
			}
			c.copyBuffered(p, b, c.buf[b*blk:(b+1)*blk], c.curDirty.Test(b))
			copied += blk
		}
		flips = append(flips, flip{s, p.newState})
	}
	c.rec.End()
	c.rec.Begin("fence")
	c.dev.SFence() // all replica writes durable
	c.rec.End()

	c.commitEpoch(func(neIdx int) {
		for _, f := range flips {
			c.meta.SetSegState(neIdx, f.s, f.st)
		}
	})
	c.meta.Seal()
	c.rec.Count("ckpt/dirty_bytes", int64(copied))

	c.curDirty.ClearAll()
	c.dirtySegs.ClearAll()
	c.metrics.CheckpointBytes += int64(copied)
	c.metrics.Epochs++
	return nil
}
