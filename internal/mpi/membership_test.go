package mpi

import (
	"errors"
	"sync/atomic"
	"testing"

	"libcrpm/internal/nvm"
)

// TestGrowJoinsAtBarrier grows a 2-rank world to 3 at a barrier and checks
// the joined rank participates in the next collective, its clock aligns to
// the slowest active rank, and ids stay dense.
func TestGrowJoinsAtBarrier(t *testing.T) {
	w := NewWorldCap(2, 3)
	var joined atomic.Int64
	var sums [3]uint64
	w.Run(func(c *Comm) {
		clk := nvm.NewClock()
		clk.Advance(int64(c.Rank()+1) * 1000)
		c.AttachClock(clk)
		c.Barrier()
		c.Grow(2, func(nc *Comm) {
			joined.Store(int64(nc.Rank()))
			nclk := nvm.NewClock()
			nc.AttachClock(nclk)
			sums[nc.Rank()] = nc.AllreduceU64(100, Sum)
			nc.Barrier()
			if nclk.NowPS() < 2000 {
				t.Errorf("joined rank clock %d never aligned to slowest", nclk.NowPS())
			}
		})
		if c.Size() != 3 {
			t.Errorf("rank %d: size %d after grow, want 3", c.Rank(), c.Size())
		}
		sums[c.Rank()] = c.AllreduceU64(uint64(c.Rank()+1), Sum)
		c.Barrier()
	})
	if joined.Load() != 2 {
		t.Fatalf("joined rank id %d, want 2", joined.Load())
	}
	for r, s := range sums {
		if s != 103 { // 1 + 2 + 100
			t.Fatalf("rank %d allreduce sum %d, want 103", r, s)
		}
	}
	if w.Alive() != 3 {
		t.Fatalf("alive %d, want 3", w.Alive())
	}
}

// TestLeaveRetiresAtBarrier retires one rank of three and checks later
// collectives span the survivors only and the leaver's clock stays frozen
// at its departure barrier.
func TestLeaveRetiresAtBarrier(t *testing.T) {
	w := NewWorld(3)
	var frozen atomic.Int64
	var sums [3]uint64
	w.Run(func(c *Comm) {
		clk := nvm.NewClock()
		c.AttachClock(clk)
		c.Barrier()
		if c.Rank() == 2 {
			c.Leave()
			frozen.Store(clk.NowPS())
			return
		}
		c.Barrier() // pairs with rank 2's Leave
		clk.Advance(5000)
		sums[c.Rank()] = c.AllreduceU64(uint64(c.Rank()+1), Sum)
	})
	for r := 0; r < 2; r++ {
		if sums[r] != 3 { // 1 + 2; the retired rank's stale slot excluded
			t.Fatalf("rank %d post-leave sum %d, want 3", r, sums[r])
		}
	}
	if got := frozen.Load(); got != 0 {
		t.Fatalf("retired clock advanced to %d after departure", got)
	}
	if w.Alive() != 2 {
		t.Fatalf("alive %d, want 2", w.Alive())
	}
	if w.Size() != 3 {
		t.Fatalf("size %d, want 3 (ids never reused)", w.Size())
	}
}

// TestGrowThenLeaveRoundTrip joins a rank and later retires it, exercising
// both transitions in one world: the membership a recovery world must
// reconstruct after an elastic split and merge.
func TestGrowThenLeaveRoundTrip(t *testing.T) {
	w := NewWorldCap(2, 3)
	var after [3]uint64
	w.Run(func(c *Comm) {
		c.AttachClock(nvm.NewClock())
		c.Grow(2, func(nc *Comm) {
			nc.AttachClock(nvm.NewClock())
			if got := nc.AllreduceU64(7, Max); got != 7 {
				t.Errorf("joined rank max %d, want 7", got)
			}
			nc.Leave()
		})
		if got := c.AllreduceU64(uint64(c.Rank()), Max); got != 7 {
			t.Errorf("rank %d max %d with joined rank, want 7", c.Rank(), got)
		}
		c.Barrier() // pairs with rank 2's Leave
		after[c.Rank()] = c.AllreduceU64(uint64(c.Rank()+1), Sum)
	})
	for r := 0; r < 2; r++ {
		if after[r] != 3 {
			t.Fatalf("rank %d sum %d after retire, want 3", r, after[r])
		}
	}
	if w.Alive() != 2 || w.Size() != 3 {
		t.Fatalf("alive=%d size=%d, want 2/3", w.Alive(), w.Size())
	}
}

// TestAbortUnparksGrow checks a crash while ranks are parked in a Grow
// collective unwinds them instead of deadlocking — the mid-provisioning
// crash case of the migration torture sweep — and the joined rank never
// starts.
func TestAbortUnparksGrow(t *testing.T) {
	crashed := errors.New("crashed mid-provisioning")
	errs := NewWorldCap(2, 3).Run(func(c *Comm) {
		if c.Rank() == 1 {
			c.Fail(crashed)
		}
		c.Grow(2, func(nc *Comm) { t.Error("a rank joined a failed world") })
		t.Error("Grow completed without rank 1")
	})
	if len(errs) != 2 {
		t.Fatalf("%d ranks reported, want 2", len(errs))
	}
	wantOnly(t, errs, 1, crashed)
}

// TestGrowValidation pins the misuse panics: non-dense ids and growth past
// capacity.
func TestGrowValidation(t *testing.T) {
	w := NewWorld(1)
	w.Run(func(c *Comm) {
		for _, bad := range []int{0, 2, 5} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("Grow(%d) on size-1 capacity-1 world did not panic", bad)
					}
				}()
				c.Grow(bad, func(*Comm) {})
			}()
		}
	})
}
