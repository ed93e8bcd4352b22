package mpi

import "libcrpm/internal/core"

// CheckpointIncremental is the protocol reference the package's tests drive
// (the server spells the same protocol out over its own lifecycle, one
// allreduce per serving batch): the coordinated incremental cut. Every rank
// opens its pipeline, drains budget-byte flush quanta until the global
// remainder reaches zero, commits, and barriers — at which point every
// container holds both epoch e and e+1, exactly as after Checkpoint. The
// ranks then drain the post-commit replay quanta the same way; the
// barrier before them is what makes overwriting epoch e's backups during
// replay safe. budget <= 0 drains each phase in one quantum.
func CheckpointIncremental(c *Comm, ctr *core.Container, budget int) error {
	if err := ctr.CheckpointBegin(); err != nil {
		return err
	}
	for {
		rem, err := ctr.CheckpointStep(budget)
		if err != nil {
			return err
		}
		if c.AllreduceU64(uint64(rem), Sum) == 0 {
			break
		}
	}
	if err := ctr.CheckpointCommit(); err != nil {
		return err
	}
	c.Barrier()
	for {
		rem, err := ctr.CheckpointStep(budget)
		if err != nil {
			return err
		}
		if c.AllreduceU64(uint64(rem), Sum) == 0 {
			return nil
		}
	}
}
