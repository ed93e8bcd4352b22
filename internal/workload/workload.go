// Package workload implements the paper's data-structure benchmark driver
// (§5.2.1): keys are drawn uniformly (insert-only) or from a scrambled
// Zipfian distribution with α = 0.99 (all other mixes); the epoch loop runs
// operations until the simulated clock crosses the checkpoint interval, then
// triggers a checkpoint, exactly like the paper's 128 ms epochs.
package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"libcrpm/internal/nvm"
	"libcrpm/internal/obs"
	"libcrpm/internal/pds"
)

// ErrNoOps is returned by Driver.Run when asked to execute zero (or
// negative) operations: an empty run has no epochs and no meaningful
// Result, and silently returning zeros has hidden mis-sized sweeps before.
var ErrNoOps = errors.New("workload: run needs at least one operation")

// Zipfian generates keys in [0, n) with a Zipfian popularity distribution
// (YCSB's algorithm, Gray et al.), scrambled so popular keys spread across
// the key space.
type Zipfian struct {
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	zeta2 float64
}

// NewZipfian prepares a generator over n items with parameter theta
// (the paper uses 0.99).
func NewZipfian(n uint64, theta float64) *Zipfian {
	if n == 0 {
		panic("workload: zipfian over empty key space")
	}
	z := &Zipfian{n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

// zetaMemo keeps every generalized harmonic number zeta has summed, keyed
// by its arguments. The sum is n math.Pow calls — 12 ms at 200 000 keys —
// and every client stream of a run, and every cell of a figure, builds a
// generator over the same key space. A pure function's cache: the value for
// a key never changes, so sharing it across generators changes no draw.
var zetaMemo = struct {
	sync.Mutex
	sums map[[2]uint64]float64
}{sums: make(map[[2]uint64]float64)}

// zeta returns the generalized harmonic number H(n, theta), summed once per
// (n, theta). Concurrent first callers wait for one summation instead of
// each running their own.
func zeta(n uint64, theta float64) float64 {
	key := [2]uint64{n, math.Float64bits(theta)}
	zetaMemo.Lock()
	defer zetaMemo.Unlock()
	sum, ok := zetaMemo.sums[key]
	if !ok {
		sum = zetaSum(n, theta)
		zetaMemo.sums[key] = sum
	}
	return sum
}

func zetaSum(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next draws the next key.
func (z *Zipfian) Next(rng *rand.Rand) uint64 {
	return scramble(z.NextRank(rng)) % z.n
}

// NextRank draws the next popularity rank in [0, n): 0 is the most popular
// item, without the scrambling Next applies. The latest distribution uses
// ranks directly (rank 0 maps to the newest key).
func (z *Zipfian) NextRank(rng *rand.Rand) uint64 {
	u := rng.Float64()
	uz := u * z.zetan
	var rank uint64
	switch {
	case uz < 1.0:
		rank = 0
	case uz < 1.0+math.Pow(0.5, z.theta):
		rank = 1
	default:
		rank = uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	if rank >= z.n {
		rank = z.n - 1
	}
	return rank
}

// scramble is the FNV-1a-style hash YCSB uses to spread ranks.
func scramble(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	return k
}

// Mix is one of the paper's four workloads.
type Mix struct {
	// Name as printed in figures.
	Name string
	// UpdateFrac is the fraction of operations that write (the rest read).
	UpdateFrac float64
	// InsertOnly inserts fresh uniform keys instead of updating existing
	// ones.
	InsertOnly bool
}

// The paper's four mixes (§5.2.1).
var (
	InsertOnly = Mix{Name: "Insert-only", UpdateFrac: 1.0, InsertOnly: true}
	Balanced   = Mix{Name: "Balanced", UpdateFrac: 0.5}
	ReadHeavy  = Mix{Name: "Read-heavy", UpdateFrac: 0.05}
	ReadOnly   = Mix{Name: "Read-only", UpdateFrac: 0}
)

// Mixes lists them in the paper's order.
func Mixes() []Mix { return []Mix{InsertOnly, Balanced, ReadHeavy, ReadOnly} }

// Result summarizes one driver run.
type Result struct {
	Ops        int
	Epochs     int
	SimTime    time.Duration
	Throughput float64 // operations per simulated second
	// Pause statistics over the checkpoint calls of the run: how long the
	// application was stopped each time (the "disturbance" the paper's
	// epoch model tries to minimize).
	MeanPause time.Duration
	MaxPause  time.Duration
	// PauseShare is the fraction of the run spent inside checkpoints.
	PauseShare float64
}

// Driver runs a mix against a KV with epoch-based checkpointing.
type Driver struct {
	// KV is the structure under test.
	KV pds.KV
	// Clock is the simulated clock that paces epochs.
	Clock *nvm.Clock
	// Checkpoint ends an epoch (collective call, epoch persist, ...).
	Checkpoint func() error
	// Interval is the execution period of each epoch (the paper's default
	// is 128 ms).
	Interval time.Duration
	// Keys is the populated key-space size for non-insert mixes.
	Keys uint64
	// Zipf, if non-nil, draws keys for non-insert mixes; otherwise uniform.
	Zipf *Zipfian
	// Rng drives all randomness; required.
	Rng *rand.Rand
	// Trace, if non-nil, receives an "epoch" span per epoch plus the
	// per-epoch device-stat deltas and the checkpoint-pause histogram. The
	// driver records these for every backend uniformly, so baselines get
	// epoch attribution even without their own phase spans. Requires Device.
	Trace *obs.Recorder
	// Device is the cell's device, read (never advanced) for the per-epoch
	// stat snapshots when Trace is set.
	Device *nvm.Device
}

// Populate inserts keys 0..n-1 and checkpoints once, the paper's initial
// loading phase.
func (d *Driver) Populate(n uint64) error {
	for k := uint64(0); k < n; k++ {
		if err := d.KV.Put(k, k); err != nil {
			return fmt.Errorf("populate key %d: %w", k, err)
		}
	}
	d.Keys = n
	return d.Checkpoint()
}

// Run executes ops operations of the mix, checkpointing whenever the
// simulated execution period elapses, and finishes with a final checkpoint
// if the epoch is dirty.
func (d *Driver) Run(mix Mix, ops int) (Result, error) {
	if d.Rng == nil {
		return Result{}, fmt.Errorf("workload: driver needs an Rng")
	}
	if ops <= 0 {
		return Result{}, ErrNoOps
	}
	start := d.Clock.Now()
	epochStart := start
	epochs := 0
	var pauseTotal, pauseMax time.Duration
	traced := d.Trace.Enabled()
	var statsBase nvm.Stats
	if traced {
		if d.Device != nil {
			statsBase = d.Device.Stats()
		}
		d.Trace.Begin("epoch")
	}
	nextInsert := d.Keys
	for i := 0; i < ops; i++ {
		if d.Clock.Now()-epochStart >= d.Interval {
			pause, err := d.checkpointEpoch(&statsBase)
			if err != nil {
				return Result{}, err
			}
			pauseTotal += pause
			if pause > pauseMax {
				pauseMax = pause
			}
			epochs++
			epochStart = d.Clock.Now()
			if traced {
				d.Trace.Begin("epoch")
			}
		}
		switch {
		case mix.InsertOnly:
			if err := d.KV.Put(nextInsert, uint64(i)); err != nil {
				return Result{}, err
			}
			nextInsert++
		case d.Rng.Float64() < mix.UpdateFrac:
			if err := d.KV.Put(d.nextKey(), uint64(i)); err != nil {
				return Result{}, err
			}
		default:
			d.KV.Get(d.nextKey())
		}
	}
	if d.Clock.Now() > epochStart {
		pause, err := d.checkpointEpoch(&statsBase)
		if err != nil {
			return Result{}, err
		}
		pauseTotal += pause
		if pause > pauseMax {
			pauseMax = pause
		}
		epochs++
	} else if traced {
		// No trailing work: close the epoch span opened after the last
		// checkpoint (or at run start) without recording an empty epoch.
		d.Trace.End()
	}
	if mix.InsertOnly {
		d.Keys = nextInsert
	}
	elapsed := d.Clock.Now() - start
	res := Result{Ops: ops, Epochs: epochs, SimTime: elapsed, MaxPause: pauseMax}
	if epochs > 0 {
		res.MeanPause = pauseTotal / time.Duration(epochs)
	}
	if elapsed > 0 {
		res.Throughput = float64(ops) / elapsed.Seconds()
		res.PauseShare = float64(pauseTotal) / float64(elapsed)
	}
	return res, nil
}

// checkpointEpoch ends the current epoch: it runs the checkpoint inside a
// "ckpt-pause" span (emitted for every backend, even ones without their own
// phase spans), closes the surrounding "epoch" span, and folds the epoch's
// device-stat delta and pause into the recorder's histograms. statsBase is
// advanced to the post-checkpoint snapshot.
func (d *Driver) checkpointEpoch(statsBase *nvm.Stats) (time.Duration, error) {
	t0 := d.Clock.Now()
	var t0ps int64
	if d.Trace.Enabled() {
		t0ps = d.Clock.NowPS()
		d.Trace.Begin("ckpt-pause")
	}
	if err := d.Checkpoint(); err != nil {
		return 0, err
	}
	pause := d.Clock.Now() - t0
	if d.Trace.Enabled() {
		d.Trace.End() // ckpt-pause
		d.Trace.End() // epoch
		var delta nvm.Stats
		if d.Device != nil {
			s := d.Device.Stats()
			delta = s.Sub(*statsBase)
			*statsBase = s
		}
		d.Trace.RecordEpoch(delta, d.Clock.NowPS()-t0ps)
	}
	return pause, nil
}

func (d *Driver) nextKey() uint64 {
	if d.Zipf != nil {
		return d.Zipf.Next(d.Rng)
	}
	return d.Rng.Uint64() % d.Keys
}
