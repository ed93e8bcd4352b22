package mpi

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"libcrpm/internal/core"
	"libcrpm/internal/nvm"
	"libcrpm/internal/region"
)

// TestAbortUnparksRanks: ranks parked at a barrier a failed rank will
// never reach must unwind instead of deadlocking the world, and Run must
// report the failed rank's error at its index alone.
func TestAbortUnparksRanks(t *testing.T) {
	const ranks = 4
	crashed := errors.New("crashed before the second barrier")
	errs := NewWorld(ranks).Run(func(c *Comm) {
		c.Barrier() // everyone reaches the first barrier
		if c.Rank() == 2 {
			c.Fail(crashed)
			t.Error("Fail returned")
		}
		c.Barrier() // parks until the failure, then unwinds
		t.Errorf("rank %d passed a barrier rank 2 never reached", c.Rank())
	})
	wantOnly(t, errs, 2, crashed)
}

// wantOnly checks Run's errors hold want at rank and nil elsewhere.
func wantOnly(t *testing.T, errs []error, rank int, want error) {
	t.Helper()
	for r, err := range errs {
		if r != rank && err != nil || r == rank && err != want {
			t.Errorf("rank %d: error %v", r, err)
		}
	}
}

// TestAbortDoesNotFailCompletedBarrier: a failure raised after a barrier's
// generation advanced must not retroactively fail ranks still waking from
// it — only the next collective may fail.
func TestAbortDoesNotFailCompletedBarrier(t *testing.T) {
	const ranks = 8
	for trial := 0; trial < 50; trial++ {
		var completed atomic.Int32
		NewWorld(ranks).Run(func(c *Comm) {
			c.Barrier()
			completed.Add(1) // the barrier completed for this rank
			if c.Rank() == 0 {
				c.Fail(errors.New("failed after the barrier"))
			}
			c.Barrier() // this one is allowed (and expected) to unwind
		})
		if got := completed.Load(); got != ranks {
			t.Fatalf("trial %d: only %d/%d ranks passed the completed barrier", trial, got, ranks)
		}
	}
}

// TestFailureUnwindsParkedPeers is the failure contract, call by call:
// while every other rank is parked in a blocking call, one rank calls Fail
// or panics. Run must return before the deadline with exactly that rank's
// error at its index and nil elsewhere, or re-raise exactly its panic
// value — never a bystander's unwind.
func TestFailureUnwindsParkedPeers(t *testing.T) {
	const (
		ranks    = 3
		failer   = 1
		deadline = 5 * time.Second
	)
	calls := []struct {
		name string
		park func(c *Comm)
	}{
		{"Barrier", func(c *Comm) { c.Barrier() }},
		{"AllreduceU64", func(c *Comm) { c.AllreduceU64(1, Sum) }},
		{"AllreduceF64", func(c *Comm) { c.AllreduceF64(1, Max) }},
		{"Grow", func(c *Comm) { c.Grow(ranks, func(*Comm) { t.Error("a rank joined a failed world") }) }},
		{"Leave", func(c *Comm) { c.Leave() }},
		{"Send", func(c *Comm) {
			for { // fills the failer's mailbox, then parks
				c.Send(failer, nil)
			}
		}},
		{"Recv", func(c *Comm) { c.Recv(failer) }},
	}
	type boom struct{ rank int }
	for _, call := range calls {
		for _, panics := range []bool{false, true} {
			how := "Fail"
			if panics {
				how = "panic"
			}
			t.Run(call.name+"/"+how, func(t *testing.T) {
				failed := errors.New("rank 1 failed")
				w := NewWorldCap(ranks, ranks+1)
				type outcome struct {
					errs []error
					p    any
				}
				done := make(chan outcome, 1)
				go func() {
					var o outcome
					defer func() {
						o.p = recover()
						done <- o
					}()
					o.errs = w.Run(func(c *Comm) {
						if c.Rank() != failer {
							call.park(c)
							t.Errorf("rank %d returned from %s in a failed world", c.Rank(), call.name)
							return
						}
						for parkedInComm() < ranks-1 {
							runtime.Gosched()
						}
						if panics {
							panic(boom{failer})
						}
						c.Fail(failed)
					})
				}()
				var o outcome
				select {
				case o = <-done:
				case <-time.After(deadline):
					t.Fatalf("Run still waiting after %v", deadline)
				}
				if panics {
					if o.p != (boom{failer}) {
						t.Fatalf("Run re-raised %v, want rank %d's panic value", o.p, failer)
					}
					return
				}
				if o.p != nil {
					t.Fatalf("Run panicked: %v", o.p)
				}
				if len(o.errs) != ranks {
					t.Fatalf("Run returned %d errors, want %d", len(o.errs), ranks)
				}
				wantOnly(t, o.errs, failer, failed)
			})
		}
	}
}

// parkedInComm counts the goroutines blocked inside a Comm method: on the
// barrier's condition variable or on a mailbox.
func parkedInComm() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		blocked := strings.Contains(g, "[sync.Cond.Wait") || strings.Contains(g, "[select") || strings.Contains(g, "[chan ")
		if blocked && strings.Contains(g, "mpi.(*Comm).") {
			n++
		}
	}
	return n
}

// TestCommitBarrierWindowConverges is the satellite coordinated-recovery
// test: a crash is injected inside the commit-to-barrier window of a
// coordinated checkpoint — two ranks already committed epoch 4, one rank
// crashes mid-commit (primitive-level injection), one never started — and
// recovery must roll the ahead ranks back one epoch so all ranks converge
// on the same globally committed epoch with that epoch's exact state.
func TestCommitBarrierWindowConverges(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeDefault, core.ModeBuffered} {
		const (
			ranks     = 4
			preEpochs = 3
		)
		opts := ContainerOptions(regCfg(), mode)
		l, err := region.NewLayout(opts.Region)
		if err != nil {
			t.Fatal(err)
		}
		devs := make([]*nvm.Device, ranks)

		errs := NewWorld(ranks).Run(func(c *Comm) {
			rank := c.Rank()
			devs[rank] = nvm.NewDevice(l.DeviceSize())
			ctr, err := core.NewContainer(devs[rank], opts)
			if err != nil {
				c.Fail(err)
			}
			for e := 1; e <= preEpochs; e++ {
				writeU64(ctr, 8*rank, uint64(1000*e+rank))
				if err := Checkpoint(c, ctr); err != nil {
					c.Fail(err)
				}
			}
			// Epoch 4: the window. All ranks have epoch-4 writes in flight.
			writeU64(ctr, 8*rank, uint64(4000+rank))
			switch rank {
			case 0, 1:
				// Committed epoch 4, crashed before reaching the barrier.
				if err := ctr.Checkpoint(); err != nil {
					c.Fail(err)
				}
			case 2:
				// Crashes mid-commit: the injected panic fires on a device
				// primitive inside the checkpoint protocol, and the failure
				// detector fails the world to unpark the survivors.
				devs[rank].FailAfter(4) // the commit takes 12 (9 buffered)
				defer FailOnCrash(c)
				_ = ctr.Checkpoint()
				c.Fail(errors.New("no crash within 4 primitives"))
			case 3:
				// Never starts its commit; parks at the coordination barrier.
				c.Barrier()
				t.Errorf("rank 3 passed the barrier of a crashed epoch")
			}
		})
		for r, err := range errs {
			if _, crash := err.(nvm.InjectedCrash); (r == 2 && !crash) || (r != 2 && err != nil) {
				t.Fatalf("mode %v rank %d: error %v, want an injected crash on rank 2 alone", mode, r, err)
			}
		}

		// Power-fail every device, then inspect the divergence window.
		rng := rand.New(rand.NewSource(13))
		for _, d := range devs {
			d.Crash(rng)
		}
		ctrs := make([]*core.Container, ranks)
		epochsBefore := make([]uint64, ranks)
		var lo, hi uint64 = ^uint64(0), 0
		for r, d := range devs {
			ctr, err := core.OpenContainerDeferRecovery(d, opts)
			if err != nil {
				t.Fatalf("mode %v rank %d: %v", mode, r, err)
			}
			ctrs[r] = ctr
			epochsBefore[r] = ctr.CommittedEpoch()
			if epochsBefore[r] < lo {
				lo = epochsBefore[r]
			}
			if epochsBefore[r] > hi {
				hi = epochsBefore[r]
			}
		}
		if lo != preEpochs || hi != preEpochs+1 {
			t.Fatalf("mode %v: committed epochs %v, want a [%d,%d] window", mode, epochsBefore, preEpochs, preEpochs+1)
		}

		// Coordinated recovery: ahead ranks roll back one epoch; all converge.
		w2 := NewWorld(ranks)
		w2.Run(func(c *Comm) {
			if err := Recover(c, ctrs[c.Rank()]); err != nil {
				t.Errorf("rank %d recover: %v", c.Rank(), err)
			}
		})
		for r, ctr := range ctrs {
			if got := ctr.CommittedEpoch(); got != lo {
				t.Errorf("mode %v rank %d: recovered to epoch %d, want %d", mode, r, got, lo)
			}
			got := binary.LittleEndian.Uint64(ctr.Bytes()[8*r:])
			if want := uint64(1000*preEpochs + r); got != want {
				t.Errorf("mode %v rank %d: value %d, want %d (epoch-%d state)", mode, r, got, want, lo)
			}
		}
	}
}
