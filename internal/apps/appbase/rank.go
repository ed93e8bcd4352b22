package appbase

import (
	"fmt"

	"libcrpm/internal/baselines/fti"
	"libcrpm/internal/ckpt"
	"libcrpm/internal/core"
	"libcrpm/internal/mpi"
	"libcrpm/internal/nvm"
	"libcrpm/internal/region"
)

// The checkpoint systems a rank runs under, by the paper's names (Figure 8,
// §5.5, §5.6).
const (
	Buffered = "libcrpm-Buffered"
	Default  = "libcrpm-Default"
	FTI      = "FTI"
)

// Runner is one rank of a mini-app: Run advances it to iteration target,
// calling ckpt every ckptEvery iterations (never when ckptEvery is 0).
type Runner interface {
	Run(target, ckptEvery int, ckpt func() error) error
	State() *State
}

// options is the container config of a libcrpm rank: 64 KiB segments, 256 B
// blocks, a backup for every segment, and eager copy-on-write off so that
// coordinated recovery can roll back one epoch (mpi.ContainerOptions).
func options(system string, heapSize int) (core.Options, error) {
	var mode core.Mode
	switch system {
	case Buffered:
		mode = core.ModeBuffered
	case Default:
		mode = core.ModeDefault
	default:
		return core.Options{}, fmt.Errorf("appbase: unknown system %q", system)
	}
	reg := region.Config{HeapSize: heapSize, SegmentSize: 64 << 10, BlockSize: 256, BackupRatio: 1}
	return mpi.ContainerOptions(reg, mode), nil
}

// Format returns a fresh rank backend of system over heapSize bytes, on a
// device of its own. Ranks checkpoint it together with mpi.Checkpoint.
func Format(system string, heapSize int) (ckpt.Backend, error) {
	if system == FTI {
		b, err := fti.New(fti.Config{HeapSize: heapSize})
		if err != nil {
			return nil, err
		}
		return b, nil
	}
	opts, err := options(system, heapSize)
	if err != nil {
		return nil, err
	}
	l, err := region.NewLayout(opts.Region)
	if err != nil {
		return nil, err
	}
	dev := nvm.NewDevice(l.DeviceSize())
	ctr, err := core.NewContainer(dev, opts)
	if err != nil {
		dev.Close()
		return nil, err
	}
	return ctr, nil
}

// Recover reopens a rank's backend of system from dev after a crash and
// recovers it with its peers (mpi.Recover, §3.6): every rank must call it.
func Recover(c *mpi.Comm, system string, heapSize int, dev *nvm.Device) (ckpt.Backend, error) {
	if system == FTI {
		// fti.Open recovers at once; that destroys neither slot, so
		// mpi.Recover can still roll back to the globally committed epoch.
		b, err := fti.Open(fti.Config{HeapSize: heapSize}, dev)
		if err != nil {
			return nil, err
		}
		if err := mpi.Recover(c, b); err != nil {
			return nil, err
		}
		return b, nil
	}
	opts, err := options(system, heapSize)
	if err != nil {
		return nil, err
	}
	ctr, err := mpi.OpenAndRecover(c, dev, opts)
	if err != nil {
		return nil, err
	}
	return ctr, nil
}
