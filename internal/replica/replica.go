package replica

import (
	"fmt"
	"math"

	"libcrpm/internal/core"
	"libcrpm/internal/nvm"
	"libcrpm/internal/obs"
)

// Delta is one committed cut's replication payload: the boundary images of
// every segment the epoch dirtied, plus the epoch it commits. A delta is
// captured atomically at the cut boundary (monolithic cuts capture just
// before the commit; incremental cuts at CheckpointBegin, where the write
// barrier freezes the boundary image), so installing it can never produce
// a state between two cuts. Deltas are immutable and shared by every
// secondary of the shard.
type Delta struct {
	// Epoch is the committed epoch this delta produces when installed.
	Epoch uint64
	// Segs are the dirty main-segment indices, ascending.
	Segs []int
	// Images holds each segment's boundary image, parallel to Segs.
	Images [][]byte
	// Bytes is the payload size (sum of image lengths).
	Bytes int
}

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
	dev   *nvm.Device
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

// install applies one delta: every segment image is written through the
// container's instrumented path (so the secondary's own CoW protocol and
// rollback window stay intact), then committed as a local checkpoint.
// Deltas must install in epoch order.
func (s *Secondary) install(d *Delta) error {
	if d.Epoch != s.installed+1 {
		return fmt.Errorf("replica: secondary %d at epoch %d cannot install delta for epoch %d", s.id, s.installed, d.Epoch)
	}
	s.rec.Begin("install")
	l := s.ctr.Layout()
	for i, seg := range d.Segs {
		off := seg * l.SegSize
		img := d.Images[i]
		s.ctr.OnWrite(off, len(img))
		s.ctr.Write(off, img)
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
			dev:   dev,
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

// Ship pushes one delta into every secondary's receive buffer. The
// transfer itself rides the cut's commit fence (the payload is durable on
// the receiving nodes when Ship returns — this is what makes a committed,
// acked cut survive the primary's loss); the install is scheduled
// asynchronously at nowPS plus the replica's lag and transfer time.
func (g *Group) Ship(d *Delta, nowPS int64) {
	for _, s := range g.secs {
		at := nowPS + ShipLatencyPS(s.id, d.Bytes)
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
			if err := s.install(s.queue[0].d); err != nil {
				return installs, err
			}
			s.queue = s.queue[1:]
			installs++
		}
	}
	return installs, nil
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
			s.queue = s.queue[:len(s.queue)-1]
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
	return &Promotion{sec: best, avail: avail}, nil
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
		p.sec.queue = p.sec.queue[:n-1]
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

// Recover implements mpi.Recoverable: install every remaining buffered
// delta. The secondary's node never failed, so no media recovery runs —
// catching the container up to the agreed epoch is the whole recovery.
func (p *Promotion) Recover() error {
	p.sec.rec.Begin("promote")
	defer p.sec.rec.End()
	for len(p.sec.queue) > 0 {
		in := p.sec.queue[0]
		if in.d.Epoch > p.avail {
			p.sec.queue = nil
			break
		}
		if err := p.sec.install(in.d); err != nil {
			return err
		}
		p.sec.queue = p.sec.queue[1:]
	}
	if p.sec.installed != p.avail {
		return fmt.Errorf("replica: promotion landed on epoch %d, want %d", p.sec.installed, p.avail)
	}
	return nil
}
