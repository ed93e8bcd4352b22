package core

import (
	"encoding/binary"

	"libcrpm/internal/nvm"
	"libcrpm/internal/region"
)

// RecoveryPhases reports how the last Recover's simulated time divided
// between re-synchronizing the NVM regions and (buffered mode) loading the
// working state into DRAM — the §5.5 breakdown.
type RecoveryPhases struct {
	ResyncPS int64
	LoadPS   int64
}

// LastRecovery returns the phase breakdown of the most recent Recover call.
func (c *Container) LastRecovery() RecoveryPhases { return c.lastRecovery }

// Recover rebuilds a consistent working state from the committed checkpoint
// (§3.4.3, Figure 6 lines 45-51). It is idempotent and safe to run after any
// crash point, including crashes during copy-on-write or during a
// checkpoint.
//
// For every paired (main, backup) segment, the two copies are re-synchronized
// in the direction the active segment state array dictates: if the main
// segment holds the checkpoint state, the backup is refreshed from it (so the
// differential copy of future copy-on-writes starts from a known-equal pair);
// if the backup holds it, the main segment — the working state — is restored
// from the backup.
func (c *Container) Recover() error {
	clock := c.dev.Clock()
	prev := clock.SetCategory(nvm.CatRecovery)
	defer clock.SetCategory(prev)

	c.rec.Begin("recovery")
	defer c.rec.End()

	startPS := clock.NowPS()
	eIdx := int(c.meta.CommittedEpoch() % 2)
	restored := int64(0)
	c.rec.Begin("resync")
	for j := 0; j < c.l.NBackup; j++ {
		m := c.meta.BackupToMain(j)
		if m == region.NoPair || int(m) >= c.l.NMain {
			continue
		}
		s := int(m)
		switch c.meta.SegState(eIdx, s) {
		case region.SSMain:
			c.persistCopy(c.l.BackupOff(j), c.l.MainOff(s), c.l.SegSize)
			restored += int64(c.l.SegSize)
		case region.SSBackup:
			c.persistCopy(c.l.MainOff(s), c.l.BackupOff(j), c.l.SegSize)
			restored += int64(c.l.SegSize)
		}
	}
	c.rec.End()
	// Segments that never committed (SS_Initial) hold no program state;
	// their committed content is the formatted (zero) state. A crash may
	// have persisted arbitrary in-flight lines into them, so scrub any that
	// are no longer zero (default mode reads the main region directly).
	if c.opts.Mode == ModeDefault {
		c.rec.Begin("scrub")
		zero := make([]byte, c.l.SegSize)
		for s := 0; s < c.l.NMain; s++ {
			if c.meta.SegState(eIdx, s) != region.SSInitial {
				continue
			}
			off := c.l.MainOff(s)
			if !isZero(c.dev.Working()[off : off+c.l.SegSize]) {
				c.dev.NTStore(off, zero)
				restored += int64(c.l.SegSize)
			}
		}
		c.rec.End()
	}
	c.dev.SFence()
	c.metrics.RecoveryBytes += restored
	// Recovery is a quiescent point: re-seal the metadata checksums (no-op
	// for plain containers). Covers crash-interrupted epochs and the
	// coordinated-recovery rollback, both of which leave the image unsealed.
	c.meta.Seal()

	// Volatile protocol state restarts empty; pairings reload from the
	// persistent mapping array.
	c.rebuildPairings()
	c.dirtyBlocks.ClearAll()
	c.dirtySegs.ClearAll()
	c.wtForget()
	c.lastBlk = -1
	// Any in-flight incremental cut died with the volatile state.
	c.inc = nil
	c.lastRecovery = RecoveryPhases{ResyncPS: clock.NowPS() - startPS}

	if c.opts.Mode == ModeBuffered {
		// Populate the DRAM working buffer from the (now synchronized)
		// committed state (§5.5: the second phase of buffered recovery).
		c.rec.Begin("load")
		defer c.rec.End()
		for s := 0; s < c.l.NMain; s++ {
			dst := c.buf[s*c.l.SegSize : (s+1)*c.l.SegSize]
			if c.meta.SegState(eIdx, s) == region.SSInitial {
				clear(dst)
				continue
			}
			src := c.l.MainOff(s)
			c.dev.ChargeNVMRead(c.l.SegSize)
			c.dev.ChargeDRAMCopy(c.l.SegSize)
			copy(dst, c.dev.Working()[src:src+c.l.SegSize])
			c.metrics.RecoveryBytes += int64(c.l.SegSize)
		}
		c.curDirty.ClearAll()
		c.pendingMain.ClearAll()
		c.pendingBackup.ClearAll()
		c.virginBackups.ClearAll()
		c.lastRecovery.LoadPS = clock.NowPS() - startPS - c.lastRecovery.ResyncPS
	}
	return nil
}

// isZero scans eight bytes per step; recovery runs it over every SS_Initial
// segment, so the byte-at-a-time version showed up in profiles.
func isZero(b []byte) bool {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		if binary.LittleEndian.Uint64(b[i:]) != 0 {
			return false
		}
	}
	for ; i < len(b); i++ {
		if b[i] != 0 {
			return false
		}
	}
	return true
}
