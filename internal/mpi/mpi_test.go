package mpi

import (
	"encoding/binary"
	"math/rand"
	"sync/atomic"
	"testing"

	"libcrpm/internal/core"
	"libcrpm/internal/nvm"
	"libcrpm/internal/region"
)

func TestBarrierSynchronizes(t *testing.T) {
	w := NewWorld(6)
	var before, after int32
	w.Run(func(c *Comm) {
		atomic.AddInt32(&before, 1)
		c.Barrier()
		if got := atomic.LoadInt32(&before); got != 6 {
			t.Errorf("rank %d passed barrier with only %d arrivals", c.Rank(), got)
		}
		atomic.AddInt32(&after, 1)
		c.Barrier()
	})
	if after != 6 {
		t.Fatalf("after = %d", after)
	}
}

func TestBarrierReusable(t *testing.T) {
	w := NewWorld(3)
	w.Run(func(c *Comm) {
		for i := 0; i < 100; i++ {
			c.Barrier()
		}
	})
}

func TestAllreduce(t *testing.T) {
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		v := uint64(c.Rank() + 1)
		if got := c.AllreduceU64(v, Min); got != 1 {
			t.Errorf("min = %d", got)
		}
		if got := c.AllreduceU64(v, Max); got != 4 {
			t.Errorf("max = %d", got)
		}
		if got := c.AllreduceU64(v, Sum); got != 10 {
			t.Errorf("sum = %d", got)
		}
		f := float64(c.Rank())
		if got := c.AllreduceF64(f, Sum); got != 6 {
			t.Errorf("fsum = %v", got)
		}
		if got := c.AllreduceF64(f, Max); got != 3 {
			t.Errorf("fmax = %v", got)
		}
	})
}

func TestSendRecv(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		peer := 1 - c.Rank()
		sent := []float64{float64(c.Rank()), 42}
		got := c.SendRecv(peer, sent)
		if got[0] != float64(peer) || got[1] != 42 {
			t.Errorf("rank %d received %v", c.Rank(), got)
		}
	})
}

func TestClockAlignmentAtBarrier(t *testing.T) {
	w := NewWorld(3)
	w.Run(func(c *Comm) {
		clk := nvm.NewClock()
		c.AttachClock(clk)
		clk.Advance(int64(c.Rank()+1) * 1000)
		c.Barrier()
		if clk.NowPS() != 3000 {
			t.Errorf("rank %d clock = %d, want 3000 (slowest rank)", c.Rank(), clk.NowPS())
		}
	})
}

func TestRankPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rank panic not propagated")
		}
	}()
	// Size 1 so no other rank parks at a barrier forever.
	NewWorld(1).Run(func(c *Comm) { panic("boom") })
}

func regCfg() region.Config {
	return region.Config{HeapSize: 8 * 4096, SegmentSize: 4096, BlockSize: 256, BackupRatio: 1}
}

func writeU64(c *core.Container, off int, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	c.OnWrite(off, 8)
	c.Write(off, b[:])
}

// TestCoordinatedRecoveryRollsBackToMinimum reproduces the §3.6 scenario:
// a crash lands between the individual commits of a coordinated checkpoint,
// so ranks disagree by one epoch; recovery must converge on the minimum.
func TestCoordinatedRecoveryRollsBackToMinimum(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeDefault, core.ModeBuffered} {
		const ranks = 4
		opts := ContainerOptions(regCfg(), mode)
		devs := make([]*nvm.Device, ranks)
		l, err := region.NewLayout(opts.Region)
		if err != nil {
			t.Fatal(err)
		}

		// Phase 1: all ranks commit epoch 1 together, then start epoch 2's
		// commits; only half finish before the crash.
		w := NewWorld(ranks)
		w.Run(func(c *Comm) {
			devs[c.Rank()] = nvm.NewDevice(l.DeviceSize())
			ctr, err := core.NewContainer(devs[c.Rank()], opts)
			if err != nil {
				t.Error(err)
				return
			}
			writeU64(ctr, 0, 100+uint64(c.Rank()))
			if err := Checkpoint(c, ctr); err != nil { // epoch 1, all ranks
				t.Error(err)
				return
			}
			writeU64(ctr, 0, 200+uint64(c.Rank()))
			if c.Rank()%2 == 0 {
				// These ranks commit epoch 2; the others crash first.
				if err := ctr.Checkpoint(); err != nil {
					t.Error(err)
				}
			}
			c.Barrier()
		})

		// Crash every rank.
		rng := rand.New(rand.NewSource(8))
		for _, d := range devs {
			d.Crash(rng)
		}

		// Phase 2: coordinated recovery must roll everyone to epoch 1.
		w2 := NewWorld(ranks)
		w2.Run(func(c *Comm) {
			ctr, err := OpenAndRecover(c, devs[c.Rank()], opts)
			if err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
				return
			}
			if got := ctr.CommittedEpoch(); got != 1 {
				t.Errorf("rank %d recovered to epoch %d, want 1", c.Rank(), got)
			}
			got := binary.LittleEndian.Uint64(ctr.Bytes()[0:])
			if want := 100 + uint64(c.Rank()); got != want {
				t.Errorf("rank %d value = %d, want %d", c.Rank(), got, want)
			}
		})
	}
}

// TestCoordinatedRecoveryAllCommitted verifies the no-divergence path: every
// rank committed the same epoch, nobody rolls back.
func TestCoordinatedRecoveryAllCommitted(t *testing.T) {
	const ranks = 3
	opts := ContainerOptions(regCfg(), core.ModeBuffered)
	l, err := region.NewLayout(opts.Region)
	if err != nil {
		t.Fatal(err)
	}
	devs := make([]*nvm.Device, ranks)
	w := NewWorld(ranks)
	w.Run(func(c *Comm) {
		devs[c.Rank()] = nvm.NewDevice(l.DeviceSize())
		ctr, err := core.NewContainer(devs[c.Rank()], opts)
		if err != nil {
			t.Error(err)
			return
		}
		for e := uint64(1); e <= 3; e++ {
			writeU64(ctr, 0, e*10+uint64(c.Rank()))
			if err := Checkpoint(c, ctr); err != nil {
				t.Error(err)
				return
			}
		}
	})
	rng := rand.New(rand.NewSource(13))
	for _, d := range devs {
		d.Crash(rng)
	}
	w2 := NewWorld(ranks)
	w2.Run(func(c *Comm) {
		ctr, err := OpenAndRecover(c, devs[c.Rank()], opts)
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		if ctr.CommittedEpoch() != 3 {
			t.Errorf("rank %d epoch = %d", c.Rank(), ctr.CommittedEpoch())
		}
		got := binary.LittleEndian.Uint64(ctr.Bytes()[0:])
		if want := 30 + uint64(c.Rank()); got != want {
			t.Errorf("rank %d value = %d, want %d", c.Rank(), got, want)
		}
	})
}

func TestSendRecvOrdering(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 8; i++ {
				c.Send(1, []float64{float64(i)})
			}
		} else {
			for i := 0; i < 8; i++ {
				got := c.Recv(0)
				if got[0] != float64(i) {
					t.Errorf("message %d arrived as %v", i, got)
				}
			}
		}
	})
}

func TestAllreduceRepeatable(t *testing.T) {
	w := NewWorld(3)
	w.Run(func(c *Comm) {
		for round := 0; round < 50; round++ {
			v := uint64(c.Rank() + round)
			want := uint64(3*round + 3) // (round)+(round+1)+(round+2)
			if got := c.AllreduceU64(v, Sum); got != want {
				t.Errorf("round %d: sum = %d, want %d", round, got, want)
				return
			}
		}
	})
}

// TestCoordinatedRecoveryWithDeferredCoW is the §3.6 scenario with a
// deferral between the cuts. Once epoch 1's barrier is behind every rank its
// copy-on-write may be deferred: the replay overwrites the backups — epoch 0,
// nobody's landing epoch any more — in idle time, behind the epoch's first
// stores. Then the crash lands between the ranks' commits of epoch 2: even
// ranks have committed it, through a checkpoint that found the replay
// unfinished and finished it first; odd ranks die inside a replay quantum.
// Recovery must still converge on epoch 1 everywhere — the even ranks by a
// one-epoch rollback onto backups the replay completed before the commit, the
// odd ones from a main region no staged store ever reached.
func TestCoordinatedRecoveryWithDeferredCoW(t *testing.T) {
	const ranks = 4
	opts := ContainerOptions(regCfg(), core.ModeDefault)
	l, err := region.NewLayout(opts.Region)
	if err != nil {
		t.Fatal(err)
	}
	for crashAt := int64(0); crashAt < 12; crashAt++ {
		devs := make([]*nvm.Device, ranks)
		w := NewWorld(ranks)
		w.Run(func(c *Comm) {
			dev := nvm.NewDevice(l.DeviceSize())
			devs[c.Rank()] = dev
			ctr, err := core.NewContainer(dev, opts)
			if err != nil {
				t.Error(err)
				return
			}
			for seg := 0; seg < 3; seg++ {
				writeU64(ctr, seg*4096, 100+uint64(c.Rank()))
				writeU64(ctr, seg*4096+512, 100+uint64(c.Rank()))
			}
			if err := Checkpoint(c, ctr); err != nil { // epoch 1, all ranks
				t.Error(err)
				return
			}
			ctr.DeferCoW(1 << 60)
			for seg := 0; seg < 3; seg++ {
				writeU64(ctr, seg*4096, 200+uint64(c.Rank())) // staged
			}
			ctr.StepCoW(1) // one block of segment 0's sixteen
			if c.Rank()%2 == 0 {
				// These ranks commit epoch 2; the others crash first.
				if err := ctr.Checkpoint(); err != nil {
					t.Error(err)
				}
			} else {
				func() {
					defer func() {
						dev.FailAfter(-1)
						if _, ok := recover().(nvm.InjectedCrash); !ok {
							t.Errorf("rank %d: no crash within %d primitives of the replay", c.Rank(), crashAt)
						}
					}()
					dev.FailAfter(crashAt)
					for ctr.StepCoW(1) > 0 {
					}
				}()
			}
			c.Barrier()
		})
		rng := rand.New(rand.NewSource(8 + crashAt))
		for _, d := range devs {
			d.Crash(rng)
		}
		w2 := NewWorld(ranks)
		w2.Run(func(c *Comm) {
			ctr, err := OpenAndRecover(c, devs[c.Rank()], opts)
			if err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
				return
			}
			if got := ctr.CommittedEpoch(); got != 1 {
				t.Errorf("crash at %d: rank %d recovered to epoch %d, want 1", crashAt, c.Rank(), got)
			}
			for seg := 0; seg < 3; seg++ {
				for _, off := range []int{seg * 4096, seg*4096 + 512} {
					got := binary.LittleEndian.Uint64(ctr.Bytes()[off:])
					if want := 100 + uint64(c.Rank()); got != want {
						t.Errorf("crash at %d: rank %d offset %d = %d, want %d", crashAt, c.Rank(), off, got, want)
					}
				}
			}
		})
	}
}
