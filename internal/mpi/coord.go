package mpi

import (
	"fmt"

	"libcrpm/internal/core"
	"libcrpm/internal/nvm"
	"libcrpm/internal/region"
)

// ContainerOptions returns the container options ranks must use for
// coordinated checkpointing: eager checkpoint-period copy-on-write is
// disabled so that both epochs e and e-1 remain recoverable across the
// commit barrier (§3.6; see DESIGN.md).
func ContainerOptions(reg region.Config, mode core.Mode) core.Options {
	return core.Options{Region: reg, Mode: mode, EagerCoWSegments: -1}
}

// Checkpointer is the commit surface Checkpoint needs from a rank's
// per-process checkpoint store; core.Container, the FTI baseline, and the
// incll backend all qualify.
type Checkpointer interface {
	Checkpoint() error
}

// Checkpoint is crpm_mpi_checkpoint (§3.6): each rank commits its container
// individually, then all ranks synchronize. When the barrier returns, every
// container holds checkpoint states for both epoch e and epoch e-1, so a
// crash anywhere in the window recovers to a globally consistent epoch.
func Checkpoint(c *Comm, ctr Checkpointer) error {
	if err := ctr.Checkpoint(); err != nil {
		return err
	}
	c.Barrier()
	return nil
}

// Recoverable is a per-rank checkpoint store that supports coordinated
// recovery: both the last and the previous committed epoch remain intact
// until the next epoch's writes begin, so a one-epoch rollback is always
// possible inside the recovery window. core.Container (with eager CoW
// disabled) and the FTI baseline both qualify.
type Recoverable interface {
	CommittedEpoch() uint64
	RollbackOneEpoch() error
	Recover() error
}

// Recover implements the coordinated recovery of §3.6: ranks agree on the
// minimum committed epoch, roll back stores that committed one epoch ahead,
// and only then run the per-rank recovery protocol. Containers must have
// been opened with core.OpenContainerDeferRecovery (recovery resynchronizes
// the regions, which would destroy the rollback window).
func Recover(c *Comm, r Recoverable) error {
	e := r.CommittedEpoch()
	eMin := c.AllreduceU64(e, Min)
	if e > eMin+1 {
		return fmt.Errorf("mpi: rank %d at epoch %d, global minimum %d; the protocol never diverges by more than one", c.Rank(), e, eMin)
	}
	if e == eMin+1 {
		if err := r.RollbackOneEpoch(); err != nil {
			return err
		}
	}
	if err := r.Recover(); err != nil {
		return err
	}
	c.Barrier()
	return nil
}

// OpenAndRecover opens each rank's container from its device and performs
// coordinated recovery, returning the recovered container.
func OpenAndRecover(c *Comm, dev *nvm.Device, opts core.Options) (*core.Container, error) {
	ctr, err := core.OpenContainerDeferRecovery(dev, opts)
	if err != nil {
		return nil, err
	}
	if err := Recover(c, ctr); err != nil {
		return nil, err
	}
	return ctr, nil
}
