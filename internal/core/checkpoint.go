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
	if c.inc != nil && !c.inc.deferred {
		return errors.New("core: monolithic Checkpoint with an incremental checkpoint in flight")
	}
	if c.wt {
		return errWriteThroughOpen
	}
	clock := c.dev.Clock()
	prev := clock.SetCategory(nvm.CatCheckpoint)
	defer clock.SetCategory(prev)
	c.rec.Begin("checkpoint")
	defer c.rec.End()
	c.finishDeferred()
	// The checkpoint clears dirty state (including eager CoW's per-segment
	// resets), so the OnWrite last-hit memo is stale from here on.
	c.lastBlk = -1
	if c.opts.Mode == ModeBuffered {
		return c.checkpointBuffered()
	}
	return c.checkpointDefault()
}

func (c *Container) checkpointDefault() error {
	// Step 1: persist every block modified this epoch, in place, in the
	// main region. Below the LLC threshold a clwb loop over dirty blocks is
	// cheaper; above it, one wbinvd writes the whole cache back (§3.4.2).
	c.rec.Begin("dirty-scan")
	dirtyBytes := 0
	bps := c.l.BlocksPerSeg()
	for s := c.dirtySegs.NextSet(0); s >= 0; s = c.dirtySegs.NextSet(s + 1) {
		dirtyBytes += c.dirtyBlocks.CountRange(s*bps, (s+1)*bps) * c.l.BlkSize
	}
	if c.wtOn {
		// Written-through blocks are dirty blocks of dirty segments that are
		// already durable: not this checkpoint's to flush.
		dirtyBytes -= c.pre.Count() * c.l.BlkSize
	}
	c.rec.End()
	c.rec.Begin("flush")
	if dirtyBytes < c.opts.LLCSize {
		// Runs of adjacent dirty blocks map to contiguous device ranges
		// (the heap is contiguous in the main region), so each run becomes
		// one batched flush instead of a CLWB loop per block.
		flush := c.flushBlocks
		for s := c.dirtySegs.NextSet(0); s >= 0; s = c.dirtySegs.NextSet(s + 1) {
			c.dirtyBlocks.ForEachRunInRange(s*bps, (s+1)*bps, flush)
		}
	} else {
		c.dev.WBINVD()
	}
	c.rec.End()
	c.rec.Begin("fence")
	c.dev.SFence()
	c.rec.End()
	c.metrics.CheckpointBytes += int64(dirtyBytes)
	c.rec.Count("ckpt/dirty_bytes", int64(dirtyBytes))

	// Step 2: atomically switch the checkpoint state. The inactive segment
	// state array receives the new states and is made durable; then the
	// committed epoch counter flips which array is active.
	c.rec.Begin("commit")
	e := c.meta.CommittedEpoch()
	eIdx, neIdx := int(e%2), int((e+1)%2)
	c.meta.CopySegStateArray(neIdx, eIdx)
	for s := c.dirtySegs.NextSet(0); s >= 0; s = c.dirtySegs.NextSet(s + 1) {
		c.meta.SetSegState(neIdx, s, region.SSMain)
	}
	c.meta.FlushSegStateArray(neIdx)
	c.dev.SFence()
	c.meta.SetCommittedEpoch(e + 1)
	c.dev.SFence()
	c.rec.End()

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

// eagerCoW pre-copies every dirty segment's differential blocks into its
// backup during the checkpoint period, so next epoch's first writes skip
// their per-segment fences. All copies share one fence; all state flips
// share another.
func (c *Container) eagerCoW(activeIdx int) {
	bps := c.l.BlocksPerSeg()
	type flip struct{ s int }
	var flips []flip
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
		mainOff := c.l.MainOff(s)
		backupOff := c.l.BackupOff(int(backup))
		if !hadPair {
			c.persistCopy(backupOff, mainOff, c.l.SegSize)
			c.meta.SetBackupToMain(int(backup), uint32(s))
			c.cowBytes += int64(c.l.SegSize)
		} else {
			delta := backupOff - mainOff
			c.dirtyBlocks.ForEachRunInRange(s*bps, (s+1)*bps, func(b0, b1 int) {
				off := c.l.HeapToDevice(b0 * c.l.BlkSize)
				n := (b1 - b0) * c.l.BlkSize
				c.persistCopy(off+delta, off, n)
				c.cowBytes += int64(n)
			})
		}
		flips = append(flips, flip{s})
	}
	if len(flips) == 0 {
		return
	}
	c.dev.SFence() // one fence for all copies
	for _, f := range flips {
		c.meta.SetSegState(activeIdx, f.s, region.SSBackup)
		c.meta.FlushSegState(activeIdx, f.s)
	}
	c.dev.SFence() // one fence for all state flips
	for _, f := range flips {
		c.dirtyBlocks.ClearRange(f.s*bps, (f.s+1)*bps)
	}
}

func (c *Container) checkpointBuffered() error {
	e := c.meta.CommittedEpoch()
	eIdx, neIdx := int(e%2), int((e+1)%2)
	bps := c.l.BlocksPerSeg()
	copied := 0
	c.rec.Begin("copy")

	type flip struct {
		s  int
		st region.SegState
	}
	var flips []flip
	for s := c.dirtySegs.NextSet(0); s >= 0; s = c.dirtySegs.NextSet(s + 1) {
		st := c.meta.SegState(eIdx, s)
		var targetOff int
		var pend, other *bitmap.Set
		var newState region.SegState
		switch st {
		case region.SSMain:
			// Committed copy lives in main: replicate into the backup.
			backup, hadPair := c.findPairedBackup(s)
			if !hadPair {
				// Unknown backup content (stolen or post-recovery pair):
				// schedule a full-segment copy. A virgin backup is zero,
				// exactly what the pending bitmaps assume.
				if !c.virginBackups.Test(int(backup)) {
					c.pendingBackup.SetRange(s*bps, (s+1)*bps)
				}
				c.virginBackups.Clear(int(backup))
				c.meta.SetBackupToMain(int(backup), uint32(s))
			}
			targetOff = c.l.BackupOff(int(backup))
			pend, other = c.pendingBackup, c.pendingMain
			newState = region.SSBackup
		case region.SSBackup:
			targetOff = c.l.MainOff(s)
			pend, other = c.pendingMain, c.pendingBackup
			newState = region.SSMain
		default: // SSInitial: first commit of this segment goes to main.
			targetOff = c.l.MainOff(s)
			pend, other = c.pendingMain, c.pendingBackup
			newState = region.SSMain
		}
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
			cur := c.curDirty.Test(b)
			boff := (b - s*bps) * c.l.BlkSize
			src := c.buf[s*c.l.SegSize+boff : s*c.l.SegSize+boff+c.l.BlkSize]
			c.dev.ChargeDRAMCopy(c.l.BlkSize)
			c.dev.NTStore(targetOff+boff, src)
			copied += c.l.BlkSize
			pend.Clear(b)
			if cur {
				other.Set(b)
			}
		}
		flips = append(flips, flip{s, newState})
	}
	c.rec.End()
	c.rec.Begin("fence")
	c.dev.SFence() // all replica writes durable
	c.rec.End()

	c.rec.Begin("commit")
	c.meta.CopySegStateArray(neIdx, eIdx)
	for _, f := range flips {
		c.meta.SetSegState(neIdx, f.s, f.st)
	}
	c.meta.FlushSegStateArray(neIdx)
	c.dev.SFence()
	c.meta.SetCommittedEpoch(e + 1)
	c.dev.SFence()
	c.rec.End()
	c.meta.Seal()
	c.rec.Count("ckpt/dirty_bytes", int64(copied))

	c.curDirty.ClearAll()
	c.dirtySegs.ClearAll()
	c.metrics.CheckpointBytes += int64(copied)
	c.metrics.Epochs++
	return nil
}
