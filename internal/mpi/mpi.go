// Package mpi provides an in-process rank runtime standing in for MPI in
// the paper's parallel-application experiments (§3.6, §5.2.2): each rank is
// a goroutine with its own NVM device and container; the package supplies
// barriers, allreduce, point-to-point mailboxes, and the coordinated
// checkpoint/recovery protocol libcrpm layers over MPI_Barrier.
//
// Simulated clocks are aligned at barriers — ranks wait for the slowest, as
// on a real machine — so end-to-end simulated times include synchronization
// slack.
//
// A rank that panics or calls Comm.Fail fails its world, as MPI_Abort does:
// every other rank unwinds at its next collective or mailbox call (or
// wakes in the one it is parked in), and World.Run reports the failure.
package mpi

import (
	"fmt"
	"sync"

	"libcrpm/internal/nvm"
)

// World is a set of ranks executing one program. Membership is dynamic
// within a fixed capacity: ranks join (Grow) and retire (Leave) at
// barriers, so every membership change happens at a point the whole world
// agrees on — the same boundary discipline the coordinated checkpoint
// protocol uses. Collectives span the active ranks only.
type World struct {
	max int // rank id capacity, fixed at construction

	mu      sync.Mutex
	cond    *sync.Cond
	arrived int
	gen     uint64
	// failed is closed, under mu, when a rank fails the world.
	failed chan struct{}

	total   int    // ranks ever spawned; next Grow id
	active  []bool // active[r]: rank r participates in collectives
	alive   int    // number of active ranks
	leaving []int  // ranks retiring at the current barrier
	growTo  int    // pending Grow rank id, -1 when none
	growFn  func(c *Comm)

	wg     sync.WaitGroup
	errs   []error // errs[r]: what rank r passed to Fail
	panics []any   // panics[r]: rank r's panic value, if it panicked

	clocks []*nvm.Clock

	redU64 []uint64
	redF64 []float64

	mail [][]chan []float64
}

// aborted is the panic value that unwinds a rank once its world has
// failed. It never escapes Run.
type aborted struct{}

// NewWorld creates a world of n ranks with no growth headroom.
func NewWorld(n int) *World { return NewWorldCap(n, n) }

// NewWorldCap creates a world of n active ranks that can Grow up to max.
// All per-rank state (mailboxes, clocks, reduction slots) is preallocated
// at max so joining a rank never reallocates shared structures under
// concurrent readers.
func NewWorldCap(n, max int) *World {
	if n < 1 {
		panic("mpi: world size must be at least 1")
	}
	if max < n {
		panic(fmt.Sprintf("mpi: capacity %d below initial size %d", max, n))
	}
	w := &World{
		max:    max,
		total:  n,
		active: make([]bool, max),
		alive:  n,
		growTo: -1,
		failed: make(chan struct{}),
		errs:   make([]error, max),
		panics: make([]any, max),
		clocks: make([]*nvm.Clock, max),
		redU64: make([]uint64, max),
		redF64: make([]float64, max),
	}
	for r := 0; r < n; r++ {
		w.active[r] = true
	}
	w.cond = sync.NewCond(&w.mu)
	w.mail = make([][]chan []float64, max)
	for i := range w.mail {
		w.mail[i] = make([]chan []float64, max)
		for j := range w.mail[i] {
			w.mail[i][j] = make(chan []float64, 4)
		}
	}
	return w
}

// Size returns the number of ranks ever spawned (dense id space; a retired
// rank keeps its id).
func (w *World) Size() int { return w.total }

// Alive returns the number of active ranks.
func (w *World) Alive() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.alive
}

// spawn starts a rank goroutine, tracked by the world's WaitGroup so Run
// waits for joined ranks too. A panic other than the unwind fails the
// world. Callers hold w.mu or run before Run returns.
func (w *World) spawn(rank int, fn func(c *Comm)) {
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		defer func() {
			if p := recover(); p != nil {
				if _, ok := p.(aborted); !ok {
					w.panics[rank] = p
					w.fail()
				}
			}
		}()
		fn(&Comm{w: w, rank: rank})
	}()
}

// fail marks the world failed and wakes every rank parked in a collective
// or a mailbox call.
func (w *World) fail() {
	w.mu.Lock()
	select {
	case <-w.failed:
	default:
		close(w.failed)
	}
	w.cond.Broadcast()
	w.mu.Unlock()
}

// unwindIfFailed unwinds the calling rank if its world has failed.
func (w *World) unwindIfFailed() {
	select {
	case <-w.failed:
		panic(aborted{})
	default:
	}
}

// Run executes fn on every initial rank concurrently and waits for all
// ranks — including any joined via Grow — to finish or unwind. It returns
// one error per rank ever spawned: what the rank passed to Fail, nil for a
// rank that finished or was unwound. If any rank panicked, Run re-raises
// the lowest-ranked panic value instead.
func (w *World) Run(fn func(c *Comm)) []error {
	w.mu.Lock()
	n := w.total
	w.mu.Unlock()
	for r := 0; r < n; r++ {
		w.spawn(r, fn)
	}
	w.wg.Wait()
	for _, p := range w.panics {
		if p != nil {
			panic(p)
		}
	}
	return w.errs[:w.total]
}

// Comm is one rank's communicator handle.
type Comm struct {
	w    *World
	rank int
}

// Rank returns this rank's id.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size (ranks ever spawned).
func (c *Comm) Size() int {
	c.w.mu.Lock()
	defer c.w.mu.Unlock()
	return c.w.total
}

// AttachClock registers this rank's simulated clock; barriers then align
// clocks to the slowest rank.
func (c *Comm) AttachClock(clk *nvm.Clock) { c.w.clocks[c.rank] = clk }

// Fail records err as this rank's result, fails the world and unwinds the
// calling rank: it does not return, like testing.T.FailNow, and must be
// called from the rank's own goroutine. Every other rank unwinds at its
// next collective or mailbox call; the world is unusable afterwards —
// recovery builds a fresh one.
func (c *Comm) Fail(err error) {
	if err == nil {
		panic("mpi: Fail(nil)")
	}
	c.w.errs[c.rank] = err
	c.w.fail()
	panic(aborted{})
}

// Barrier blocks until every active rank arrives, then aligns attached
// clocks to the slowest active rank. Pending membership changes (Leave
// intents, a Grow request) take effect as the barrier completes, so every
// rank observes the same membership on the far side. If the world has
// failed — before or during the wait — Barrier unwinds the rank instead of
// completing.
func (c *Comm) Barrier() {
	w := c.w
	w.mu.Lock()
	defer w.mu.Unlock()
	w.unwindIfFailed()
	gen := w.gen
	w.arrived++
	if w.arrived == w.alive {
		// Align simulated time: everyone waited for the slowest active rank.
		// Retired ranks' clocks stay frozen at their departure time.
		var max int64
		for r, clk := range w.clocks {
			if w.active[r] && clk != nil && clk.NowPS() > max {
				max = clk.NowPS()
			}
		}
		for r, clk := range w.clocks {
			if w.active[r] && clk != nil && clk.NowPS() < max {
				clk.Advance(max - clk.NowPS())
			}
		}
		// Membership transitions happen exactly here, under the same lock
		// that releases the barrier: every rank leaving this barrier sees
		// the post-transition membership, no rank sees a torn view.
		for _, r := range w.leaving {
			if w.active[r] {
				w.active[r] = false
				w.alive--
			}
		}
		w.leaving = w.leaving[:0]
		if w.growTo >= 0 {
			r, fn := w.growTo, w.growFn
			w.growTo, w.growFn = -1, nil
			w.active[r] = true
			w.alive++
			w.total++
			// The joined rank's clock starts at the aligned barrier time once
			// it attaches; until then alignment skips its nil clock.
			w.spawn(r, fn)
		}
		w.arrived = 0
		w.gen++
		w.cond.Broadcast()
		return
	}
	for w.gen == gen {
		// An advanced gen means the barrier completed before the world
		// failed: return normally even if it failed concurrently afterwards,
		// so a completed collective never retroactively fails.
		w.unwindIfFailed()
		w.cond.Wait()
	}
}

// Grow is a collective that admits one new rank at this barrier: every
// active rank calls Grow with the same rank id (the current Size(), keeping
// ids dense) and the world spawns fn on it as the barrier completes. The
// new rank is active immediately — it must reach the world's next
// collective. fn is taken from whichever caller arrives first; callers
// must pass equivalent functions, as with any MPI collective argument.
func (c *Comm) Grow(rank int, fn func(c *Comm)) {
	w := c.w
	w.unwindIfFailed()
	w.mu.Lock()
	if rank != w.total {
		w.mu.Unlock()
		panic(fmt.Sprintf("mpi: Grow(%d) but next rank id is %d", rank, w.total))
	}
	if w.total >= w.max {
		w.mu.Unlock()
		panic(fmt.Sprintf("mpi: Grow(%d) beyond capacity %d", rank, w.max))
	}
	if w.growTo >= 0 && w.growTo != rank {
		w.mu.Unlock()
		panic(fmt.Sprintf("mpi: conflicting Grow(%d) vs pending Grow(%d)", rank, w.growTo))
	}
	if w.growTo < 0 {
		w.growTo = rank
		w.growFn = fn
	}
	w.mu.Unlock()
	c.Barrier()
}

// Leave is a collective through which the calling rank retires: it counts
// as the rank's arrival at the current barrier, and deactivation takes
// effect as that barrier completes. Remaining ranks call Barrier (or any
// collective) at the same point. After Leave returns the rank must not use
// the communicator again; its clock freezes at the departure barrier and
// its id is never reused.
func (c *Comm) Leave() {
	w := c.w
	w.unwindIfFailed()
	w.mu.Lock()
	if !w.active[c.rank] {
		w.mu.Unlock()
		panic(fmt.Sprintf("mpi: rank %d left twice", c.rank))
	}
	w.leaving = append(w.leaving, c.rank)
	w.mu.Unlock()
	c.Barrier()
}

// Op selects a reduction.
type Op int

// Reduction operators.
const (
	Min Op = iota
	Max
	Sum
)

// AllreduceU64 combines one value per active rank and returns the result
// on all.
func (c *Comm) AllreduceU64(v uint64, op Op) uint64 { return allreduce(c, c.w.redU64, v, op) }

// AllreduceF64 combines one float per active rank and returns the result
// on all.
func (c *Comm) AllreduceF64(v float64, op Op) float64 { return allreduce(c, c.w.redF64, v, op) }

// allreduce is both allreduces over their slot arrays. Retired ranks'
// stale slots are excluded; between the two barriers the active set cannot
// change (a pending membership change cannot complete until this
// collective's ranks advance), so every rank folds the same contributor
// set. Min and Max compare with < and >, so a NaN folds as it always has.
func allreduce[T uint64 | float64](c *Comm, slots []T, v T, op Op) T {
	w := c.w
	w.mu.Lock()
	slots[c.rank] = v
	w.mu.Unlock()
	c.Barrier()
	w.mu.Lock()
	first := true
	var out T
	for r := 0; r < w.total; r++ {
		if !w.active[r] {
			continue
		}
		x := slots[r]
		if first {
			out, first = x, false
			continue
		}
		switch op {
		case Min:
			if x < out {
				out = x
			}
		case Max:
			if x > out {
				out = x
			}
		case Sum:
			out += x
		}
	}
	w.mu.Unlock()
	c.Barrier() // everyone has read before the slots are reused
	return out
}

// Send posts a message to another rank (buffered; blocks when the mailbox
// is full). The slice is handed over; the receiver owns it.
func (c *Comm) Send(to int, data []float64) {
	w := c.w
	w.unwindIfFailed()
	select {
	case w.mail[to][c.rank] <- data:
	case <-w.failed:
		panic(aborted{})
	}
}

// Recv takes the next message from a rank, blocking until one arrives.
func (c *Comm) Recv(from int) []float64 {
	w := c.w
	w.unwindIfFailed()
	select {
	case data := <-w.mail[c.rank][from]:
		return data
	case <-w.failed:
		panic(aborted{})
	}
}

// SendRecv exchanges halos with a peer without deadlocking.
func (c *Comm) SendRecv(peer int, send []float64) []float64 {
	c.Send(peer, send)
	return c.Recv(peer)
}
