package core

import (
	"libcrpm/internal/region"
)

// copyOnWrite performs segment-level copy-on-write for main segment s
// (Figure 6, lines 1-17). On return the segment is writable in the current
// epoch: either its paired backup holds the checkpoint state (SS_Backup) or
// the segment held no checkpoint state to begin with.
//
// Exactly two sfence instructions are issued per copied segment — one after
// the data copy, one after the segment-state flip — regardless of how much
// data moved. This is the paper's answer to problem (P2).
func (c *Container) copyOnWrite(s int) {
	c.segLocks[s].Lock()
	defer c.segLocks[s].Unlock()
	if c.dirtySegs.Test(s) {
		// Another thread completed the CoW while we waited on the lock.
		return
	}
	e := int(c.meta.CommittedEpoch() % 2)
	if c.meta.SegState(e, s) == region.SSMain {
		c.cowCopy(e, s)
	}
	c.dirtySegs.Set(s)
}

// cowCopy replicates segment s's checkpoint state into its paired backup
// segment and flips the active segment state to SS_Backup. Caller holds the
// segment lock and has verified the active state is SS_Main.
func (c *Container) cowCopy(e, s int) {
	// One span per copied segment: CoW runs at most once per segment per
	// epoch, so this stays off the per-store path.
	c.rec.Begin("cow")
	defer c.rec.End()
	backup, hadPair := c.findPairedBackup(s)
	c.copyToBackup(s, backup, hadPair)
	if hadPair {
		c.rec.Count("cow/diff_segments", 1)
	} else {
		c.rec.Count("cow/full_segments", 1)
	}
	c.flipToBackup(e, s)
}

// flipToBackup ends a copy-on-write for however many segments the caller
// copied since the last fence: one fence makes the copies and their pairings
// durable, a second the flips of segs' entries in state array idx to
// SS_Backup.
func (c *Container) flipToBackup(idx int, segs ...int) {
	c.dev.SFence() // fence 1: data + pairing durable
	for _, s := range segs {
		c.meta.SetSegState(idx, s, region.SSBackup)
		c.meta.FlushSegState(idx, s)
	}
	c.dev.SFence() // fence 2: state flips durable
	// The backups now equal the checkpoint state exactly; restart the
	// segments' differential tracking (Figure 6, line 15).
	bps := c.l.BlocksPerSeg()
	for _, s := range segs {
		c.dirtyBlocks.ClearRange(s*bps, (s+1)*bps)
	}
}

// copyToBackup copies into main segment s's backup what the backup lacks of
// the segment's checkpoint state, durable at the next fence. The fence and
// the state flip behind it are flipToBackup's, so that several segments'
// copies can share one fence pair.
func (c *Container) copyToBackup(s int, backup uint32, hadPair bool) {
	mainOff := c.l.MainOff(s)
	backupOff := c.l.BackupOff(int(backup))
	if !hadPair {
		// Fresh pairing: the backup content is unknown, copy the whole
		// segment, then persist the pairing entry. Pairing and data land in
		// the same fence epoch; a crash before the state flip leaves
		// SS_Main and recovery re-syncs the pair.
		c.persistCopy(backupOff, mainOff, c.l.SegSize)
		c.meta.SetBackupToMain(int(backup), uint32(s))
		c.cowBytes += int64(c.l.SegSize)
		return
	}
	// Differential copy: the backup already equals the checkpoint state
	// as of the segment's previous CoW; only blocks dirtied since then
	// (still set in the dirty block bitmap, which checkpoints do not
	// clear) differ.
	delta := backupOff - mainOff
	bps := c.l.BlocksPerSeg()
	c.dirtyBlocks.ForEachRunInRange(s*bps, (s+1)*bps, func(b0, b1 int) {
		off := c.l.HeapToDevice(b0 * c.l.BlkSize)
		n := (b1 - b0) * c.l.BlkSize
		c.persistCopy(off+delta, off, n)
		c.cowBytes += int64(n)
	})
}

// persistCopy copies n bytes between device offsets with non-temporal
// stores (durable at the next fence), charging NVM read + write bandwidth.
func (c *Container) persistCopy(dst, src, n int) {
	c.dev.ChargeNVMRead(n)
	c.dev.NTStore(dst, c.dev.Working()[src:src+n])
}

// findPairedBackup returns the backup segment paired with main segment s,
// allocating one if necessary. hadPair reports whether the pairing already
// existed (enabling the differential copy path). Exhaustion panics with
// ErrBackupExhausted: the write hook has no error channel, and the paper
// makes the bound explicit — the segments modified in one epoch must fit
// the backup region.
func (c *Container) findPairedBackup(s int) (backup uint32, hadPair bool) {
	backup, hadPair, ok := c.tryFindPairedBackup(s)
	if !ok {
		panic(ErrBackupExhausted)
	}
	return backup, hadPair
}

// tryFindPairedBackup is findPairedBackup without the exhaustion panic, for
// callers that can simply skip the segment (eager checkpoint-period CoW).
//
// Allocation policy (§3.3): take a free backup if one exists; otherwise
// steal a backup whose paired main segment holds the checkpoint state
// itself (active state SS_Main), because that backup is redundant. The
// robbed segment keeps its dirty bits, so its next CoW takes the full-copy
// path.
func (c *Container) tryFindPairedBackup(s int) (backup uint32, hadPair, ok bool) {
	c.allocMu.Lock()
	defer c.allocMu.Unlock()
	if b := c.mainToBackup[s]; b != region.NoPair {
		return b, true, true
	}
	if n := len(c.freeBackups); n > 0 {
		b := c.freeBackups[n-1]
		c.freeBackups = c.freeBackups[:n-1]
		c.mainToBackup[s] = b
		return b, false, true
	}
	b, stole := c.stealBackup(s)
	if !stole {
		return 0, false, false
	}
	c.mainToBackup[s] = b
	return b, false, true
}

// stealBackup re-pairs a redundant backup segment. Caller holds allocMu.
//
// Two classes of victim exist. A backup whose main segment holds the
// checkpoint state (active SS_Main) is simply redundant and can be taken
// directly. A backup that *is* the checkpoint state (active SS_Backup) of a
// segment not written in the current epoch can be evacuated: its content is
// copied back to the main segment, the active state entry is flipped to
// SS_Main (durably, before the backup is reused), and the backup is freed.
// Eager checkpoint-period CoW and the buffered mode park committed state in
// backups indefinitely, so without evacuation the region would exhaust even
// when only a few segments are dirty per epoch.
func (c *Container) stealBackup(forSeg int) (uint32, bool) {
	e := int(c.meta.CommittedEpoch() % 2)
	// Pass 1: redundant pairs.
	for j := 0; j < c.l.NBackup; j++ {
		victim, ok := c.lockVictim(j, forSeg)
		if !ok {
			continue
		}
		redundant := c.meta.SegState(e, victim) == region.SSMain
		if redundant {
			c.mainToBackup[victim] = region.NoPair
		}
		c.segLocks[victim].Unlock()
		if redundant {
			return uint32(j), true
		}
	}
	// Pass 2: evacuate an authoritative backup of a clean segment.
	for j := 0; j < c.l.NBackup; j++ {
		victim, ok := c.lockVictim(j, forSeg)
		if !ok {
			continue
		}
		stolen := false
		if c.meta.SegState(e, victim) == region.SSBackup {
			// Move the committed state home: backup -> main, durably,
			// before the state flip; flip durably before the backup is
			// overwritten by the caller.
			c.persistCopy(c.l.MainOff(victim), c.l.BackupOff(j), c.l.SegSize)
			c.dev.SFence()
			c.meta.SetSegState(e, victim, region.SSMain)
			c.meta.FlushSegState(e, victim)
			c.dev.SFence()
			c.mainToBackup[victim] = region.NoPair
			if c.opts.Mode == ModeBuffered {
				// The main region copy is now exactly the committed state.
				bps := c.l.BlocksPerSeg()
				c.pendingMain.ClearRange(victim*bps, (victim+1)*bps)
			}
			stolen = true
		}
		c.segLocks[victim].Unlock()
		if stolen {
			return uint32(j), true
		}
	}
	return 0, false
}

// lockVictim returns, locked, the main segment paired with backup j if that
// pair may be broken up for forSeg's sake right now. Dirty segments are
// excluded even when their active state is SS_Main: in buffered mode a dirty
// segment's pair is reserved — it is being filled with the state about to
// commit, and the flip to SS_Backup only lands with the commit. Segments an
// in-flight incremental cut still depends on are reserved too: their backups
// hold (or are becoming) the state the cut commits or replays. And segments
// mid-CoW (their lock is held) are skipped.
func (c *Container) lockVictim(j, forSeg int) (victim int, ok bool) {
	m := c.meta.BackupToMain(j)
	if m == region.NoPair || int(m) == forSeg {
		return 0, false
	}
	victim = int(m)
	if c.dirtySegs.Test(victim) || c.incReserved(victim) || !c.segLocks[victim].TryLock() {
		return 0, false
	}
	return victim, true
}
