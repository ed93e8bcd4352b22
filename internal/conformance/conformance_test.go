// Package conformance applies one uniform failure-atomicity contract test
// to every checkpoint-recovery system in the repository: under an identical
// operation script with a crash injected at an arbitrary device primitive,
// the recovered working state must equal the state committed by some
// checkpoint — either the last one that completed, or the one that was in
// flight when the crash hit (if its commit point had been passed). Nothing
// else is acceptable.
//
// The per-system packages test their own protocols in depth; this suite
// guarantees the shared ckpt.Backend contract holds across all of them.
package conformance

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"libcrpm/internal/baselines/fti"
	"libcrpm/internal/baselines/lmc"
	"libcrpm/internal/baselines/mprotect"
	"libcrpm/internal/baselines/softdirty"
	"libcrpm/internal/baselines/undolog"
	"libcrpm/internal/ckpt"
	"libcrpm/internal/core"
	"libcrpm/internal/incll"
	"libcrpm/internal/nvm"
	"libcrpm/internal/region"
)

const heapSize = 32 * 1024

// system describes one backend under contract test.
type system struct {
	name   string
	fresh  func() (ckpt.Backend, error)
	reopen func(dev *nvm.Device) (ckpt.Backend, error)
}

func crpmOpts(mode core.Mode) core.Options {
	return core.Options{
		Region: region.Config{HeapSize: heapSize, SegmentSize: 4096, BlockSize: 256, BackupRatio: 1},
		Mode:   mode,
	}
}

func systems() []system {
	mk := func(mode core.Mode) system {
		return system{
			name: mode.String(),
			fresh: func() (ckpt.Backend, error) {
				l, err := region.NewLayout(crpmOpts(mode).Region)
				if err != nil {
					return nil, err
				}
				return core.NewContainer(nvm.NewDevice(l.DeviceSize()), crpmOpts(mode))
			},
			reopen: func(dev *nvm.Device) (ckpt.Backend, error) {
				return core.OpenContainer(dev, crpmOpts(mode))
			},
		}
	}
	return []system{
		mk(core.ModeDefault),
		mk(core.ModeBuffered),
		{
			name:  "Mprotect",
			fresh: func() (ckpt.Backend, error) { return mprotect.New(heapSize) },
			reopen: func(dev *nvm.Device) (ckpt.Backend, error) {
				return mprotect.Open(heapSize, dev)
			},
		},
		{
			name:  "Soft-dirty bit",
			fresh: func() (ckpt.Backend, error) { return softdirty.New(heapSize) },
			reopen: func(dev *nvm.Device) (ckpt.Backend, error) {
				return softdirty.Open(heapSize, dev)
			},
		},
		{
			name:  "Undo-log",
			fresh: func() (ckpt.Backend, error) { return undolog.New(heapSize) },
			reopen: func(dev *nvm.Device) (ckpt.Backend, error) {
				return undolog.Open(heapSize, dev)
			},
		},
		{
			name:  "LMC",
			fresh: func() (ckpt.Backend, error) { return lmc.New(heapSize) },
			reopen: func(dev *nvm.Device) (ckpt.Backend, error) {
				return lmc.Open(heapSize, dev)
			},
		},
		{
			name:  "FTI",
			fresh: func() (ckpt.Backend, error) { return fti.New(fti.Config{HeapSize: heapSize}) },
			reopen: func(dev *nvm.Device) (ckpt.Backend, error) {
				return fti.Open(fti.Config{HeapSize: heapSize}, dev)
			},
		},
		{
			name:  "InCLL",
			fresh: func() (ckpt.Backend, error) { return incll.New(heapSize) },
			reopen: func(dev *nvm.Device) (ckpt.Backend, error) {
				return incll.Open(heapSize, dev)
			},
		},
	}
}

// open builds sys on a fresh device that goes back when the test ends.
func (sys system) open(t *testing.T) ckpt.Backend {
	t.Helper()
	b, err := sys.fresh()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Device().Close)
	return b
}

func writeU64(b ckpt.Backend, off int, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	b.OnWrite(off, 8)
	b.Write(off, buf[:])
}

// script runs the shared workload, snapshotting the would-be state of each
// checkpoint before executing it.
func script(b ckpt.Backend, shadows *[][]byte, rng *rand.Rand) {
	for i := 0; i < 60; i++ {
		if i%11 == 10 {
			snap := make([]byte, heapSize)
			copy(snap, b.Bytes())
			*shadows = append(*shadows, snap)
			if err := b.Checkpoint(); err != nil {
				panic(err)
			}
			continue
		}
		writeU64(b, rng.Intn(heapSize/8-1)*8, rng.Uint64())
	}
}

// crashImages are how a crash point's unguaranteed lines resolve: one seeded
// coin flip per line, and the two adversaries — every written line reached
// the media, none did. A protocol that orders two stores into one cache line
// wrongly survives most coin flips and no persist-all.
var crashImages = []struct {
	name   string
	policy func(rng *rand.Rand) nvm.CrashPolicy
}{
	{"seeded", nvm.SeededCrash},
	{"persist-all", func(*rand.Rand) nvm.CrashPolicy { return nvm.PersistAll }},
	{"drop-all", func(*rand.Rand) nvm.CrashPolicy { return nvm.DropAll }},
}

// TestCrashContract crashes every system at every device primitive (every
// 120th or so under -short) of scripts from four seeds, resolves each crash
// under each crash image, and holds the recovered state to the contract.
func TestCrashContract(t *testing.T) {
	for _, sys := range systems() {
		t.Run(sys.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				crashContract(t, sys, seed)
			}
		})
	}
}

func crashContract(t *testing.T, sys system, seed int64) {
	// Count primitives of a clean run to bound the sweep.
	ref := sys.open(t)
	first := ref.Device().PrimitiveCount()
	shadows := [][]byte{make([]byte, heapSize)}
	script(ref, &shadows, rand.New(rand.NewSource(seed)))
	total := ref.Device().PrimitiveCount() - first

	crashRng := rand.New(rand.NewSource(seed + 1))
	stride := int64(1)
	if testing.Short() {
		stride = total/120 + 1
	}
	for fail := int64(0); fail < total; fail += stride {
		for _, image := range crashImages {
			b, err := sys.fresh()
			if err != nil {
				t.Fatal(err)
			}
			sh := [][]byte{make([]byte, heapSize)}
			crashed := func() (c bool) {
				defer func() {
					if r := recover(); r != nil {
						if _, ok := r.(nvm.InjectedCrash); !ok {
							panic(r)
						}
						c = true
					}
				}()
				b.Device().FailAfter(fail)
				script(b, &sh, rand.New(rand.NewSource(seed)))
				return false
			}()
			b.Device().FailAfter(-1)
			if !crashed {
				t.Fatalf("seed %d: replay %d of %d never crashed", seed, fail, total)
			}
			at := fmt.Sprintf("seed %d, %s image, replay index %d (FailAfter(%d) on a fresh system)", seed, image.name, fail, fail)
			b.Device().CrashWith(image.policy(crashRng))
			b2, err := sys.reopen(b.Device())
			if err != nil {
				t.Fatalf("%s: reopen: %v", at, err)
			}
			// Contract: the recovered state is the snapshot of some
			// completed checkpoint — the last that returned, or the
			// in-flight one if its commit landed.
			if err := matchesSomeShadow(b2.Bytes(), sh); err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			// And the system keeps working after recovery.
			writeU64(b2, 0, 0xfeed)
			if err := b2.Checkpoint(); err != nil {
				t.Fatalf("%s: post-recovery checkpoint: %v", at, err)
			}
			b.Device().Close()
		}
	}
}

// matchesSomeShadow checks the recovered bytes against the last two
// snapshots (the only epochs that may be committed at the crash).
func matchesSomeShadow(got []byte, shadows [][]byte) error {
	start := len(shadows) - 2
	if start < 0 {
		start = 0
	}
	for i := len(shadows) - 1; i >= start; i-- {
		if bytes.Equal(got, shadows[i]) {
			return nil
		}
	}
	// Diagnose the nearest mismatch.
	last := shadows[len(shadows)-1]
	for i := range got {
		if got[i] != last[i] {
			return fmt.Errorf("recovered state matches no committable snapshot (first diff vs newest at %d: got %d want %d)", i, got[i], last[i])
		}
	}
	return fmt.Errorf("recovered state matches no committable snapshot")
}

// TestReadOnlyContract: Bytes and OnRead must not mutate state; a
// checkpoint of an untouched epoch must be a no-op for contents.
func TestReadOnlyContract(t *testing.T) {
	for _, sys := range systems() {
		t.Run(sys.name, func(t *testing.T) {
			b := sys.open(t)
			writeU64(b, 64, 7)
			if err := b.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			before := make([]byte, heapSize)
			copy(before, b.Bytes())
			b.OnRead(64, 8)
			_ = b.Bytes()[64]
			if err := b.Checkpoint(); err != nil { // empty epoch
				t.Fatal(err)
			}
			if !bytes.Equal(before, b.Bytes()) {
				t.Fatal("reads or empty checkpoint mutated the working state")
			}
		})
	}
}

// TestMetricsMonotonic: epochs and checkpoint bytes never decrease.
func TestMetricsMonotonic(t *testing.T) {
	for _, sys := range systems() {
		t.Run(sys.name, func(t *testing.T) {
			b := sys.open(t)
			var prev ckpt.Metrics
			for e := 0; e < 5; e++ {
				for i := 0; i < 20; i++ {
					writeU64(b, i*512, uint64(e*100+i))
				}
				if err := b.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				m := b.Metrics()
				if m.Epochs < prev.Epochs || m.CheckpointBytes < prev.CheckpointBytes {
					t.Fatalf("metrics went backwards: %+v -> %+v", prev, m)
				}
				prev = m
			}
			if prev.Epochs != 5 {
				t.Fatalf("epochs = %d, want 5", prev.Epochs)
			}
		})
	}
}
