package replica

import (
	"fmt"
	"math"

	"libcrpm/internal/core"
	"libcrpm/internal/nvm"
	"libcrpm/internal/obs"
)

// Delta is one committed cut's replication payload: the boundary image of
// every run of blocks the epoch wrote, plus the epoch it commits. A delta is
// captured atomically at the cut boundary (just before the cut begins, while
// the epoch's dirty set is intact), so installing it can never produce a
// state between two cuts. Deltas are immutable and shared by every secondary
// of the shard.
//
// Shipping hands the buffers to the group: once every receive buffer that
// held the delta has installed or dropped it, its Runs and Payload go back to
// the group's free list and a later Capture appends into them — or, for a
// payload larger than keptPayloadMax, which is mapped off the Go heap, the
// payload is unmapped.
type Delta struct {
	// Epoch is the committed epoch this delta produces when installed.
	Epoch uint64
	// Runs are the written heap ranges, ascending and disjoint. Nil once the
	// last receive buffer has let go of the delta.
	Runs []Run
	// Payload is the runs' boundary images, back to back in Runs' order: what
	// the delta ships. Nil once the last receive buffer has let go of it.
	Payload []byte

	// refs counts the receive buffers still holding the delta.
	refs int
}

// Run is one heap range of a delta: Len bytes at heap offset Off.
type Run struct{ Off, Len int }

// Config parameterizes one shard's replica group.
type Config struct {
	// Replicas is the secondary count.
	Replicas int
	// Opts are the container options, identical to the primary's (the
	// coordinated options with eager CoW disabled, so each secondary keeps
	// the one-epoch rollback window a promotion may need).
	Opts core.Options
	// DeviceSize is each secondary's simulated device size.
	DeviceSize int
	// Trace attaches an obs recorder per secondary (install and promote
	// spans on the secondary's own simulated clock).
	Trace bool
}

// The simulated network around a shard. No CLI, figure or benchmark ever set
// any of these, so they are the model's constants, not configuration.
const (
	// primaryReadPS is the client read RTT to the primary: 2 µs, the busy,
	// possibly remote, home node.
	primaryReadPS = 2_000_000
	// secondaryReadPS scales secondary read RTTs: secondary i costs
	// secondaryReadPS*(i+1), so nearer replicas are cheaper than the primary
	// and the optimizer has a real gradient to descend.
	secondaryReadPS = 500_000
	// shipLagPS is the shipping-lag base, 50 µs: a payload arrives shipLagPS<<hop
	// after it was shipped, plus its transfer time. Farther replicas run more
	// epochs behind.
	shipLagPS = 50_000_000
	// shipBytePS is the transfer cost per payload byte (≈ 10 GB/s links).
	shipBytePS = 100
)

// ShipLatencyPS is the one shipping-latency model: how long after it was sent
// a payload of the given size has arrived hop links away. Secondary i of a
// group is hop i; a migration's destination shard is hop 0.
func ShipLatencyPS(hop, bytes int) int64 {
	return shipLagPS<<hop + int64(bytes)*shipBytePS
}

// inflight is one delta sitting in a secondary's receive buffer: the
// payload arrived durably when it was shipped (the transfer rides the
// cut's commit fence), but the install only runs once the shard's clock
// passes installAtPS — that gap is the replication lag reads observe as
// staleness.
type inflight struct {
	d           *Delta
	installAtPS int64
}

// Secondary is one replica of a shard: its own simulated device and
// container, advanced exclusively by installing deltas, so its committed
// epoch always equals the number of cuts it has installed.
type Secondary struct {
	id    int
	clock *nvm.Clock
	ctr   *core.Container

	rttPS int64

	queue     []inflight
	installed uint64
	// disabled quarantines a secondary whose installed epoch ran ahead of
	// a failover's landing epoch; it needs a full resync before serving
	// reads again (not modeled — the run is ending when this happens).
	disabled bool

	rec *obs.Recorder
}

// ID returns the replica index within its group.
func (s *Secondary) ID() int { return s.id }

// Container exposes the replica's container (promotion, verification).
func (s *Secondary) Container() *core.Container { return s.ctr }

// Clock exposes the replica's simulated clock.
func (s *Secondary) Clock() *nvm.Clock { return s.clock }

// Recorder returns the replica's trace recorder (nil without Config.Trace).
func (s *Secondary) Recorder() *obs.Recorder { return s.rec }

// RTTPS is the simulated client read RTT to this replica.
func (s *Secondary) RTTPS() int64 { return s.rttPS }

// Installed returns the last installed cut's epoch.
func (s *Secondary) Installed() uint64 { return s.installed }

// Disabled reports whether the replica is quarantined from reads.
func (s *Secondary) Disabled() bool { return s.disabled }

// install applies one delta: every run's image is written through the
// container's instrumented path (so the secondary's own CoW protocol and
// rollback window stay intact), then committed as a local checkpoint.
// Deltas must install in epoch order.
func (s *Secondary) install(d *Delta) error {
	if d.Epoch != s.installed+1 {
		return fmt.Errorf("replica: secondary %d at epoch %d cannot install delta for epoch %d", s.id, s.installed, d.Epoch)
	}
	s.rec.Begin("install")
	img := d.Payload
	for _, r := range d.Runs {
		s.ctr.OnWrite(r.Off, r.Len)
		s.ctr.Write(r.Off, img[:r.Len])
		img = img[r.Len:]
	}
	err := s.ctr.Checkpoint()
	s.rec.End()
	if err != nil {
		return fmt.Errorf("replica: secondary %d install epoch %d: %w", s.id, d.Epoch, err)
	}
	if got := s.ctr.CommittedEpoch(); got != d.Epoch {
		return fmt.Errorf("replica: secondary %d committed epoch %d after installing delta %d", s.id, got, d.Epoch)
	}
	s.installed = d.Epoch
	return nil
}

// Group is one shard's replica set.
type Group struct {
	shard int
	secs  []*Secondary
	// free holds the buffers of deltas no receive buffer holds any more, for
	// Capture to append into. A buffer joins it only when the last receive
	// buffer lets go, so a reused one never aliases a queued delta; a release
	// that never happens only leaves the buffers to the garbage collector.
	free []buffers
}

// buffers is what a released delta leaves for the next Capture: its run list
// and its payload, emptied, their capacity intact.
type buffers struct {
	runs    []Run
	payload []byte
}

// NewGroup formats cfg.Replicas fresh secondaries for a shard. Every
// secondary starts from the same zeroed heap the primary started from, so
// installing the delta stream reproduces the primary's boundary images
// exactly.
func NewGroup(shard int, cfg Config) (*Group, error) {
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("replica: group needs at least one secondary, have %d", cfg.Replicas)
	}
	g := &Group{shard: shard}
	for i := 0; i < cfg.Replicas; i++ {
		dev := nvm.NewDevice(cfg.DeviceSize)
		ctr, err := core.NewContainer(dev, cfg.Opts)
		if err != nil {
			return nil, fmt.Errorf("replica: shard %d secondary %d: %w", shard, i, err)
		}
		sec := &Secondary{
			id:    i,
			clock: dev.Clock(),
			ctr:   ctr,
			rttPS: secondaryReadPS * int64(i+1),
		}
		if cfg.Trace {
			sec.rec = obs.NewRecorder(sec.clock)
			ctr.SetTrace(sec.rec)
		}
		g.secs = append(g.secs, sec)
	}
	return g, nil
}

// Len returns the secondary count.
func (g *Group) Len() int { return len(g.secs) }

// Sec returns secondary i.
func (g *Group) Sec(i int) *Secondary { return g.secs[i] }

// Capture snapshots the epoch ctr is about to commit as a delta: the
// boundary image of every run of blocks the epoch wrote (core's EpochRuns,
// adjacent runs merged), copied off the working image into the buffers the
// newest released delta left behind where they are large enough. A payload
// larger than keptPayloadMax (a populate cut's) is copied into simulated
// DRAM of secondary 0's device instead, off the Go heap, and unmapped at its
// last release. Pure DRAM copies: no device primitives run and no simulated
// time passes, so crash points and clocks are exactly those of an
// unreplicated run. It fails while ctr has a pipeline in flight, whose
// staged stores no dirty set shows.
func (g *Group) Capture(ctr *core.Container) (*Delta, error) {
	var b buffers
	if k := len(g.free); k > 0 {
		b = g.free[k-1]
		g.free[k-1] = buffers{}
		g.free = g.free[:k-1]
	}
	d := &Delta{Epoch: ctr.CommittedEpoch() + 1, Runs: b.runs}
	size := 0
	err := ctr.EpochRuns(func(off, n int) {
		if k := len(d.Runs) - 1; k >= 0 && d.Runs[k].Off+d.Runs[k].Len == off {
			d.Runs[k].Len += n
		} else {
			d.Runs = append(d.Runs, Run{Off: off, Len: n})
		}
		size += n
	})
	if err != nil {
		return nil, fmt.Errorf("replica: shard %d capture of epoch %d: %w", g.shard, d.Epoch, err)
	}
	d.Payload = b.payload
	switch {
	case size > keptPayloadMax:
		d.Payload = g.dram().DRAM(size)[:0]
	case cap(d.Payload) < size:
		d.Payload = make([]byte, 0, size)
	}
	heap := ctr.Bytes()
	for _, r := range d.Runs {
		d.Payload = append(d.Payload, heap[r.Off:r.Off+r.Len]...)
	}
	return d, nil
}

// keptPayloadMax bounds the payload a Capture copies onto the Go heap and a
// released delta leaves on the free list. A larger one is a populate cut's,
// or a cut as large: its copy costs more than its mapping, and on the heap it
// would raise the collector's goal for the rest of the run, whose pages then
// stay resident (replica_b's populate payload is ~4.8 MiB per shard; its
// steady-state cuts carry ~70 KB). So it is mapped, and unmapped at its last
// release; a payload never released (a crash between Capture and Ship, a
// receive buffer still full at the end) is unmapped with the device.
const keptPayloadMax = 1 << 20

// dram is the device whose simulated DRAM holds the group's mapped payloads.
func (g *Group) dram() *nvm.Device { return g.secs[0].ctr.Device() }

// release lets go of d for one receive buffer; the last to let go returns
// its buffers to the free list, or unmaps a mapped payload.
func (g *Group) release(d *Delta) {
	if d.refs--; d.refs > 0 {
		return
	}
	b := buffers{runs: d.Runs[:0]}
	if cap(d.Payload) <= keptPayloadMax {
		b.payload = d.Payload[:0]
	} else {
		g.dram().FreeDRAM(d.Payload)
	}
	g.free = append(g.free, b)
	d.Runs, d.Payload = nil, nil
}

// Ship pushes one delta into every secondary's receive buffer and hands
// its buffers to the group until the last buffer lets go. The transfer
// itself rides the cut's commit fence (the payload is durable on the
// receiving nodes when Ship returns — this is what makes a committed, acked
// cut survive the primary's loss); the install is scheduled asynchronously
// at nowPS plus the replica's lag and transfer time.
func (g *Group) Ship(d *Delta, nowPS int64) {
	d.refs += len(g.secs)
	for _, s := range g.secs {
		at := nowPS + ShipLatencyPS(s.id, len(d.Payload))
		s.queue = append(s.queue, inflight{d: d, installAtPS: at})
	}
}

// Deliver installs, on every secondary, each buffered delta whose install
// time has passed, in epoch order. Called between request batches; the
// shard's aligned clock makes delivery points a pure function of the run.
// DeliverAll is the same at the end of time.
func (g *Group) Deliver(nowPS int64) (installs int, err error) {
	for _, s := range g.secs {
		for len(s.queue) > 0 && s.queue[0].installAtPS <= nowPS {
			if err := g.installNext(s); err != nil {
				return installs, err
			}
			installs++
		}
	}
	return installs, nil
}

// installNext installs the oldest delta in s's receive buffer and lets go
// of it.
func (g *Group) installNext(s *Secondary) error {
	d := s.queue[0].d
	if err := s.install(d); err != nil {
		return err
	}
	s.queue = s.queue[1:]
	g.release(d)
	return nil
}

// dropNewest discards the newest delta in s's receive buffer.
func (g *Group) dropNewest(s *Secondary) {
	n := len(s.queue)
	g.release(s.queue[n-1].d)
	s.queue = s.queue[:n-1]
}

// DeliverAll drains every receive buffer regardless of install times —
// the end-of-run quiesce before verification.
func (g *Group) DeliverAll() error {
	_, err := g.Deliver(math.MaxInt64)
	return err
}

// MinInstalled returns the lowest installed epoch across secondaries —
// the shard's shadow-snapshot retention floor.
func (g *Group) MinInstalled() uint64 {
	min := ^uint64(0)
	for _, s := range g.secs {
		if s.installed < min {
			min = s.installed
		}
	}
	return min
}

// DropAbove discards buffered deltas beyond epoch (cuts that never
// globally committed) and quarantines any secondary whose installed state
// ran ahead of it — after a failover lands below what a replica already
// installed, that replica needs a resync before serving again.
func (g *Group) DropAbove(epoch uint64) {
	for _, s := range g.secs {
		for len(s.queue) > 0 && s.queue[len(s.queue)-1].d.Epoch > epoch {
			g.dropNewest(s)
		}
		if s.installed > epoch {
			s.disabled = true
		}
	}
}

// Promotion is a crashed primary's replacement, ready to run coordinated
// recovery: the most-current secondary plus its buffered deltas. It
// implements mpi.Recoverable — CommittedEpoch reports the highest epoch
// the replica can reach (installed state plus buffered deltas),
// RollbackOneEpoch retreats from a cut that never globally committed, and
// Recover replays the remaining buffer so the replica lands exactly on
// the agreed epoch.
type Promotion struct {
	g     *Group
	sec   *Secondary
	avail uint64
}

// Promotion selects the most-current secondary — highest installed epoch,
// lowest id on ties (all receive buffers hold the same shipped deltas, so
// installed state is the only differentiator: the freshest replica needs
// the least catch-up).
func (g *Group) Promotion() (*Promotion, error) {
	var best *Secondary
	for _, s := range g.secs {
		if s.disabled {
			continue
		}
		if best == nil || s.installed > best.installed {
			best = s
		}
	}
	if best == nil {
		return nil, fmt.Errorf("replica: shard %d has no promotable secondary", g.shard)
	}
	avail := best.installed
	if n := len(best.queue); n > 0 {
		avail = best.queue[n-1].d.Epoch
	}
	return &Promotion{g: g, sec: best, avail: avail}, nil
}

// Secondary returns the replica being promoted.
func (p *Promotion) Secondary() *Secondary { return p.sec }

// CommittedEpoch implements mpi.Recoverable: the highest epoch this
// replica holds state for — its installed cut plus any buffered deltas.
func (p *Promotion) CommittedEpoch() uint64 { return p.avail }

// RollbackOneEpoch implements mpi.Recoverable: the newest available cut
// never globally committed (the primary died inside the commit-barrier
// window), so retreat one epoch — drop the newest buffered delta if the
// gap is in the buffer, otherwise roll the container's own committed
// state back one epoch (always possible: a secondary only writes during
// installs, so its rollback window is intact).
func (p *Promotion) RollbackOneEpoch() error {
	if n := len(p.sec.queue); n > 0 && p.sec.queue[n-1].d.Epoch == p.avail {
		p.g.dropNewest(p.sec)
		p.avail--
		return nil
	}
	if err := p.sec.ctr.RollbackOneEpoch(); err != nil {
		return fmt.Errorf("replica: promotion rollback: %w", err)
	}
	p.avail--
	p.sec.installed--
	return nil
}

// Recover implements mpi.Recoverable: install every buffered delta up to
// the agreed epoch and drop the rest. The secondary's node never failed, so
// no media recovery runs — catching the container up to the agreed epoch is
// the whole recovery.
func (p *Promotion) Recover() error {
	p.sec.rec.Begin("promote")
	defer p.sec.rec.End()
	for len(p.sec.queue) > 0 && p.sec.queue[0].d.Epoch <= p.avail {
		if err := p.g.installNext(p.sec); err != nil {
			return err
		}
	}
	for len(p.sec.queue) > 0 {
		p.g.dropNewest(p.sec)
	}
	if p.sec.installed != p.avail {
		return fmt.Errorf("replica: promotion landed on epoch %d, want %d", p.sec.installed, p.avail)
	}
	return nil
}
