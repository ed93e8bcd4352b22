package replica

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"libcrpm/internal/core"
	"libcrpm/internal/mpi"
	"libcrpm/internal/nvm"
	"libcrpm/internal/region"
)

func TestParseSLA(t *testing.T) {
	cases := []struct {
		spec string
		want SLA
	}{
		{"strong", SLA{Level: Strong}},
		{"rmw", SLA{Level: ReadMyWrites}},
		{"read-my-writes", SLA{Level: ReadMyWrites}},
		{"monotonic", SLA{Level: Monotonic}},
		{"eventual", SLA{Level: Eventual}},
		{"bounded:3", SLA{Level: BoundedStaleness, Bound: 3}},
		{"bounded:0", SLA{Level: BoundedStaleness}},
		{"strong@2us", SLA{Level: Strong, LatencyPS: 2_000_000}},
		{"bounded:2@1ms", SLA{Level: BoundedStaleness, Bound: 2, LatencyPS: 1_000_000_000}},
	}
	for _, c := range cases {
		got, err := Parse(c.spec)
		if err != nil || got != c.want {
			t.Fatalf("Parse(%q) = %+v, %v; want %+v", c.spec, got, err, c.want)
		}
	}
	for _, bad := range []string{"", "strongest", "bounded", "bounded:", "bounded:x", "strong:1", "strong@", "strong@0s", "strong@-1s", "rmw@x"} {
		if _, err := Parse(bad); !errors.Is(err, ErrBadSLA) {
			t.Fatalf("Parse(%q) = %v, want ErrBadSLA", bad, err)
		}
	}
}

func TestSLANameRoundTrips(t *testing.T) {
	for _, s := range append(Mix(), SLA{Level: Strong, LatencyPS: 2_000_000}, SLA{Level: BoundedStaleness, Bound: 7, LatencyPS: 5_000_000}) {
		got, err := Parse(s.Name())
		if err != nil || got != s {
			t.Fatalf("Parse(Name(%+v)) = %+v, %v", s, got, err)
		}
	}
}

func TestParseSet(t *testing.T) {
	set, err := ParseSet(MixName)
	if err != nil || len(set) != 5 {
		t.Fatalf("ParseSet(mix) = %v, %v", set, err)
	}
	set, err = ParseSet("eventual")
	if err != nil || len(set) != 1 || set[0].Level != Eventual {
		t.Fatalf("ParseSet(eventual) = %v, %v", set, err)
	}
	if _, err := ParseSet("nope"); !errors.Is(err, ErrBadSLA) {
		t.Fatalf("ParseSet(nope) = %v, want ErrBadSLA", err)
	}
}

// planGroup builds a bare group for optimizer tests: three secondaries at
// views 5, 4, and 2, with RTTs 500 ns, 1 µs, 1.5 µs; primary RTT 2 µs.
func planGroup() *Group {
	return &Group{
		secs: []*Secondary{
			{id: 0, installed: 5, rttPS: 500_000},
			{id: 1, installed: 4, rttPS: 1_000_000},
			{id: 2, installed: 2, rttPS: 1_500_000},
		},
	}
}

func TestPlanSelection(t *testing.T) {
	g := planGroup()
	const committed, live = 5, 6
	cases := []struct {
		name    string
		sla     SLA
		cs      ClientState
		wantSec int
		unmet   bool
	}{
		{"strong always primary", SLA{Level: Strong}, ClientState{}, -1, false},
		{"eventual takes cheapest", SLA{Level: Eventual}, ClientState{}, 0, false},
		{"rmw satisfied by fresh replica", SLA{Level: ReadMyWrites}, ClientState{WriteEpoch: 5}, 0, false},
		{"rmw forced to primary by live write", SLA{Level: ReadMyWrites}, ClientState{WriteEpoch: 6}, -1, false},
		{"monotonic below floor filtered", SLA{Level: Monotonic}, ClientState{ReadEpoch: 5}, 0, false},
		{"monotonic above every view", SLA{Level: Monotonic}, ClientState{ReadEpoch: 6}, -1, false},
		{"bounded:0 wants caught-up", SLA{Level: BoundedStaleness, Bound: 0}, ClientState{}, 0, false},
		{"bounded:1 skips the laggard", SLA{Level: BoundedStaleness, Bound: 1}, ClientState{}, 0, false},
		{"latency prunes cheap replicas", SLA{Level: Eventual, LatencyPS: 400_000}, ClientState{}, -1, true},
		{"latency keeps the one fast replica", SLA{Level: ReadMyWrites, LatencyPS: 600_000}, ClientState{WriteEpoch: 5}, 0, false},
	}
	for _, c := range cases {
		p := g.Plan(c.sla, c.cs, committed, live)
		if p.Sec != c.wantSec || p.Unmet != c.unmet {
			t.Fatalf("%s: plan = %+v, want sec %d unmet %v", c.name, p, c.wantSec, c.unmet)
		}
		if p.Sec == -1 && p.View != live {
			t.Fatalf("%s: primary view %d, want %d", c.name, p.View, live)
		}
		if p.Sec >= 0 {
			sec := g.secs[p.Sec]
			if p.View != sec.installed || p.Staleness != committed-sec.installed {
				t.Fatalf("%s: plan %+v inconsistent with replica %+v", c.name, p, sec)
			}
		}
	}
}

func TestPlanSkipsDisabledAndEmpty(t *testing.T) {
	g := planGroup()
	g.secs[0].disabled = true
	g.secs[1].installed = 0
	p := g.Plan(SLA{Level: Eventual}, ClientState{}, 5, 6)
	if p.Sec != 2 {
		t.Fatalf("plan picked %d, want the only live replica 2", p.Sec)
	}
}

func TestPlanBoundedUnmetFallsBackToPrimary(t *testing.T) {
	g := planGroup()
	// Only a latency target makes an SLA unmeetable: the primary always
	// satisfies every consistency level.
	p := g.Plan(SLA{Level: BoundedStaleness, Bound: 0, LatencyPS: 600_000}, ClientState{}, 7, 8)
	if p.Sec != -1 || !p.Unmet {
		t.Fatalf("plan = %+v, want degraded primary", p)
	}
}

// testWorld builds a primary container plus a replica group over the same
// layout, returning heap geometry for delta fabrication.
func testWorld(t *testing.T, replicas int) (*core.Container, *Group, *region.Layout) {
	t.Helper()
	return regionWorld(t, region.Config{HeapSize: 8 << 20, BackupRatio: 1}, core.ModeDefault, replicas)
}

// smallSegWorld is testWorld on segs segments of 4 KiB, so a delta can carry
// many runs cheaply.
func smallSegWorld(t *testing.T, segs, replicas int) (*core.Container, *Group, *region.Layout) {
	t.Helper()
	return regionWorld(t, smallSegs(segs), core.ModeDefault, replicas)
}

// smallSegs is the geometry of segs segments of 4 KiB with 256 B blocks.
func smallSegs(segs int) region.Config {
	return region.Config{HeapSize: segs * 4096, SegmentSize: 4096, BlockSize: 256, BackupRatio: 1}
}

func regionWorld(t *testing.T, reg region.Config, mode core.Mode, replicas int) (*core.Container, *Group, *region.Layout) {
	t.Helper()
	l, err := region.NewLayout(reg)
	if err != nil {
		t.Fatal(err)
	}
	opts := mpi.ContainerOptions(reg, mode)
	ctr, err := core.NewContainer(nvm.NewDevice(l.DeviceSize()), opts)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGroup(0, Config{Replicas: replicas, Opts: opts, DeviceSize: l.DeviceSize()})
	if err != nil {
		t.Fatal(err)
	}
	return ctr, g, l
}

// capture is Group.Capture on a container with no pipeline in flight.
func capture(t *testing.T, g *Group, ctr *core.Container) *Delta {
	t.Helper()
	d, err := g.Capture(ctr)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func writePattern(ctr *core.Container, l *region.Layout, seg int, fill byte) {
	off := seg * l.SegSize
	buf := make([]byte, 256)
	for i := range buf {
		buf[i] = fill
	}
	ctr.OnWrite(off, len(buf))
	ctr.Write(off, buf)
}

// TestDeltaInstallConvergence drives seeded multi-epoch write patterns
// through capture, ship and install in both modes. Every delta must carry
// exactly the blocks its epoch wrote, and after every install each
// secondary's whole heap must equal the primary's at the delta's cut. Block 0
// is written in every odd epoch and left alone in the even ones, so a delta
// that shipped a block only because it was written once would show.
func TestDeltaInstallConvergence(t *testing.T) {
	const segs, epochs = 16, 12
	for _, mode := range []core.Mode{core.ModeDefault, core.ModeBuffered} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%v/seed%d", mode, seed), func(t *testing.T) {
				ctr, g, l := regionWorld(t, smallSegs(segs), mode, 2)
				rng := rand.New(rand.NewSource(seed))
				images := map[uint64][]byte{}
				// deliver installs every delta due by now, one at a time, and
				// checks the secondary after each install.
				deliver := func(now int64) {
					t.Helper()
					for _, sec := range g.secs {
						for len(sec.queue) > 0 && sec.queue[0].installAtPS <= now {
							if err := g.installNext(sec); err != nil {
								t.Fatal(err)
							}
							if !bytes.Equal(sec.ctr.Bytes(), images[sec.installed]) {
								t.Fatalf("replica %d's heap is not the primary's at cut %d", sec.id, sec.installed)
							}
						}
					}
				}
				now := int64(0)
				for e := uint64(1); e <= epochs; e++ {
					written := make([]bool, l.TotalBlocks())
					store := func(off int, src []byte) {
						ctr.OnWrite(off, len(src))
						ctr.Write(off, src)
						for b := off / l.BlkSize; b <= (off+len(src)-1)/l.BlkSize; b++ {
							written[b] = true
						}
					}
					if e%2 == 1 {
						store(8, []byte{byte(e)})
					}
					// Stores anywhere past block 0: short ones, and ones that
					// span blocks and segment boundaries.
					for i := rng.Intn(12); i >= 0; i-- {
						n := 1 + rng.Intn(600)
						off := l.BlkSize + rng.Intn(l.HeapSize()-l.BlkSize-n)
						src := make([]byte, n)
						rng.Read(src)
						store(off, src)
					}
					d := capture(t, g, ctr)
					var got []int
					for i, r := range d.Runs {
						if i > 0 && r.Off <= d.Runs[i-1].Off+d.Runs[i-1].Len {
							t.Fatalf("epoch %d: run %d at %d is not past run %d and apart from it", e, i, r.Off, i-1)
						}
						for b := r.Off / l.BlkSize; b < (r.Off+r.Len)/l.BlkSize; b++ {
							got = append(got, b)
						}
					}
					var want []int
					for b, w := range written {
						if w {
							want = append(want, b)
						}
					}
					if !slices.Equal(got, want) || len(d.Payload) != len(want)*l.BlkSize {
						t.Fatalf("epoch %d: delta carries blocks %v (%d B), the epoch wrote %v", e, got, len(d.Payload), want)
					}
					if err := ctr.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					images[e] = bytes.Clone(ctr.Bytes())
					g.Ship(d, now)
					// Cuts 40 µs apart against lags of 50 and 100 µs: receive
					// buffers hold several deltas.
					now += 40_000_000
					deliver(now)
				}
				deliver(math.MaxInt64)
				for _, sec := range g.secs {
					if sec.installed != epochs {
						t.Fatalf("replica %d at cut %d after the drain, want %d", sec.id, sec.installed, epochs)
					}
				}
			})
		}
	}
}

func TestDeliverRespectsLag(t *testing.T) {
	ctr, g, l := testWorld(t, 2)
	writePattern(ctr, l, 1, 0xAA)
	d := capture(t, g, ctr)
	if err := ctr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	g.Ship(d, 1_000_000)
	// Nothing is due at the shipping instant: ship lag keeps installs ahead.
	if n, err := g.Deliver(1_000_000); err != nil || n != 0 {
		t.Fatalf("Deliver at the shipping instant = %d, %v; want no installs", n, err)
	}
	// Replica 0 lags by the base, replica 1 by twice that: a delivery
	// point between the two installs exactly one.
	mid := 1_000_000 + ShipLatencyPS(0, len(d.Payload))
	if n, err := g.Deliver(mid); err != nil || n != 1 {
		t.Fatalf("Deliver(mid) = %d, %v; want exactly replica 0's install", n, err)
	}
	if g.Sec(0).Installed() != 1 || g.Sec(1).Installed() != 0 {
		t.Fatalf("installed = %d,%d; want 1,0", g.Sec(0).Installed(), g.Sec(1).Installed())
	}
}

func TestOutOfOrderInstallRejected(t *testing.T) {
	_, g, _ := testWorld(t, 1)
	sec := g.Sec(0)
	if err := sec.install(&Delta{Epoch: 2}); err == nil {
		t.Fatal("installing epoch 2 on a fresh replica should fail")
	}
}

// TestCaptureRefusesPipelineInFlight: with an incremental cut open, stores
// land staged where no dirty set shows them, so Capture fails rather than
// ship a delta that misses them.
func TestCaptureRefusesPipelineInFlight(t *testing.T) {
	ctr, g, l := testWorld(t, 1)
	writePattern(ctr, l, 1, 1)
	if err := ctr.CheckpointBegin(); err != nil {
		t.Fatal(err)
	}
	writePattern(ctr, l, 1, 2)
	if d, err := g.Capture(ctr); err == nil {
		t.Fatalf("captured %d runs with a cut in flight", len(d.Runs))
	}
}

func TestPromotionFromQueue(t *testing.T) {
	ctr, g, l := testWorld(t, 2)
	// Epoch 1 installed everywhere; epoch 2 shipped but still queued.
	writePattern(ctr, l, 1, 1)
	d1 := capture(t, g, ctr)
	if err := ctr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	g.Ship(d1, 0)
	if err := g.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	writePattern(ctr, l, 2, 2)
	d2 := capture(t, g, ctr)
	if err := ctr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	g.Ship(d2, 0)

	prom, err := g.Promotion()
	if err != nil {
		t.Fatal(err)
	}
	if got := prom.CommittedEpoch(); got != 2 {
		t.Fatalf("promotion available epoch %d, want 2 (queued delta counts)", got)
	}
	if err := prom.Recover(); err != nil {
		t.Fatal(err)
	}
	if prom.Secondary().Installed() != 2 {
		t.Fatalf("promoted replica at %d after recover, want 2", prom.Secondary().Installed())
	}
}

func TestPromotionRollbackDropsQueuedCut(t *testing.T) {
	ctr, g, l := testWorld(t, 1)
	writePattern(ctr, l, 1, 1)
	d1 := capture(t, g, ctr)
	if err := ctr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	g.Ship(d1, 0)
	if err := g.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	writePattern(ctr, l, 2, 2)
	d2 := capture(t, g, ctr)
	if err := ctr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	g.Ship(d2, 0)

	prom, err := g.Promotion()
	if err != nil {
		t.Fatal(err)
	}
	// Coordinated recovery decides epoch 2 never globally committed.
	if err := prom.RollbackOneEpoch(); err != nil {
		t.Fatal(err)
	}
	if got := prom.CommittedEpoch(); got != 1 {
		t.Fatalf("after rollback available = %d, want 1", got)
	}
	if err := prom.Recover(); err != nil {
		t.Fatal(err)
	}
	sec := prom.Secondary()
	if sec.Installed() != 1 {
		t.Fatalf("promoted replica at %d, want 1", sec.Installed())
	}
	// The dropped cut's segment must not have leaked into the replica.
	got := sec.Container().Bytes()
	off := 2 * l.SegSize
	for b := 0; b < 256; b++ {
		if got[off+b] != 0 {
			t.Fatalf("dropped epoch-2 delta leaked into replica at byte %d", b)
		}
	}
}

func TestPromotionRollbackFromInstalledState(t *testing.T) {
	ctr, g, l := testWorld(t, 1)
	writePattern(ctr, l, 1, 1)
	d1 := capture(t, g, ctr)
	if err := ctr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	writePattern(ctr, l, 2, 2)
	d2 := capture(t, g, ctr)
	if err := ctr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	g.Ship(d1, 0)
	g.Ship(d2, 0)
	if err := g.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	prom, err := g.Promotion()
	if err != nil {
		t.Fatal(err)
	}
	if prom.CommittedEpoch() != 2 {
		t.Fatalf("available = %d, want 2", prom.CommittedEpoch())
	}
	// Both cuts installed, but recovery lands one epoch back: the replica
	// must roll its own container's committed state.
	if err := prom.RollbackOneEpoch(); err != nil {
		t.Fatal(err)
	}
	if err := prom.Recover(); err != nil {
		t.Fatal(err)
	}
	sec := prom.Secondary()
	if sec.Installed() != 1 || sec.Container().CommittedEpoch() != 1 {
		t.Fatalf("replica at installed %d / committed %d, want 1/1", sec.Installed(), sec.Container().CommittedEpoch())
	}
}

func TestDropAboveQuarantinesAheadReplica(t *testing.T) {
	ctr, g, l := testWorld(t, 2)
	writePattern(ctr, l, 1, 1)
	d1 := capture(t, g, ctr)
	if err := ctr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	writePattern(ctr, l, 2, 2)
	d2 := capture(t, g, ctr)
	if err := ctr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	g.Ship(d1, 0)
	g.Ship(d2, 0)
	// Replica 0 installs everything; replica 1 only epoch 1.
	if err := g.Sec(0).install(d1); err != nil {
		t.Fatal(err)
	}
	if err := g.Sec(0).install(d2); err != nil {
		t.Fatal(err)
	}
	g.Sec(0).queue = nil
	if err := g.Sec(1).install(d1); err != nil {
		t.Fatal(err)
	}
	g.Sec(1).queue = g.Sec(1).queue[:0]
	g.Ship(&Delta{Epoch: 3}, 0) // queued beyond the landing everywhere

	g.DropAbove(1)
	if !g.Sec(0).Disabled() {
		t.Fatal("replica installed ahead of the landing epoch must be quarantined")
	}
	if g.Sec(1).Disabled() {
		t.Fatal("replica at the landing epoch must stay live")
	}
	if len(g.Sec(1).queue) != 0 {
		t.Fatalf("dropped cuts still queued: %d", len(g.Sec(1).queue))
	}
	if g.MinInstalled() != 1 {
		t.Fatalf("MinInstalled = %d, want 1", g.MinInstalled())
	}
}

// bases returns the backing arrays of d's run list and payload.
func bases(d *Delta) []any {
	return []any{unsafe.SliceData(d.Runs), unsafe.SliceData(d.Payload)}
}

// TestRecycledImagesNeverAlias pushes deltas whose payloads carry one byte
// pattern per capture through every way a receive buffer lets go — an
// install, DropAbove, a promotion's rollback and its recovery — while new
// captures reuse the released buffers. Every live secondary's heap must equal
// the primary's heap at the capture of its installed epoch, and no capture
// may hand out a run list or payload a receive buffer still holds.
func TestRecycledImagesNeverAlias(t *testing.T) {
	const nseg = 6
	ctr, g, l := smallSegWorld(t, nseg, 3)
	want := map[uint64][]byte{0: make([]byte, len(ctr.Bytes()))}
	seen := map[any]bool{}
	var last []any // the newest capture's buffers
	reused := 0
	fill := byte(0)
	// captureSegs writes the first block of segments 0 to n-1, one run each,
	// and captures the epoch.
	captureSegs := func(n int) *Delta {
		fill++
		for seg := 0; seg < n; seg++ {
			writePattern(ctr, l, seg, fill)
		}
		queued := map[any]bool{}
		for _, s := range g.secs {
			for _, in := range s.queue {
				for _, p := range bases(in.d) {
					queued[p] = true
				}
			}
		}
		d := capture(t, g, ctr)
		last = bases(d)
		for _, p := range last {
			if queued[p] {
				t.Fatalf("capture of epoch %d handed out a buffer a receive buffer still holds", d.Epoch)
			}
			if seen[p] {
				reused++
			}
			seen[p] = true
		}
		want[d.Epoch] = bytes.Clone(ctr.Bytes())
		return d
	}
	// tookAny reports whether the newest capture reused one of ps.
	tookAny := func(ps []any) bool {
		return slices.ContainsFunc(ps, func(p any) bool { return slices.Contains(last, p) })
	}
	check := func(stage string) {
		t.Helper()
		for _, s := range g.secs {
			if !s.disabled && !bytes.Equal(s.ctr.Bytes(), want[s.installed]) {
				t.Fatalf("%s: replica %d's heap is not the primary's image of epoch %d", stage, s.id, s.installed)
			}
		}
	}
	// The lags (50, 100 and 200 µs) span two to seven cuts 30 µs apart, so
	// every buffer holds several deltas while buffers recycle.
	now := int64(0)
	cut := func(n int) {
		d := captureSegs(n)
		if err := ctr.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		g.Ship(d, now)
		now += 30_000_000
		if _, err := g.Deliver(now); err != nil {
			t.Fatal(err)
		}
		check("deliver")
	}
	for i := 0; i < 20; i++ {
		cut(1 + i%nseg)
	}
	if reused == 0 {
		t.Fatal("no capture reused an installed delta's buffers")
	}

	// A cut that never globally committed is shipped, then dropped from every
	// buffer; the primary recaptures the same epoch — the same dirty set, so
	// the same footprint — into the released buffers.
	dropped := captureSegs(nseg)
	ps := bases(dropped)
	g.Ship(dropped, now)
	g.DropAbove(ctr.CommittedEpoch())
	if dropped.Runs != nil || dropped.Payload != nil {
		t.Fatal("a delta every buffer dropped still holds its buffers")
	}
	cut(1)
	if !tookAny(ps) {
		t.Fatal("the recapture did not reuse the dropped delta's buffers")
	}
	for i := 0; i < 3; i++ {
		cut(1 + i)
	}

	// The primary dies with deltas buffered everywhere; recovery lands one
	// epoch below the most-current secondary's newest delta.
	for i := 0; i < 3; i++ {
		d := captureSegs(nseg)
		if err := ctr.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		g.Ship(d, now)
	}
	prom, err := g.Promotion()
	if err != nil {
		t.Fatal(err)
	}
	newest := prom.sec.queue[len(prom.sec.queue)-1].d
	ps = bases(newest)
	if err := prom.RollbackOneEpoch(); err != nil {
		t.Fatal(err)
	}
	if err := prom.Recover(); err != nil {
		t.Fatal(err)
	}
	land := prom.CommittedEpoch()
	g.DropAbove(land)
	check("promotion")
	if newest.Runs != nil || newest.Payload != nil {
		t.Fatal("the delta recovery rolled back still holds its buffers")
	}
	captureSegs(1)
	if !tookAny(ps) {
		t.Fatal("the next capture did not reuse the rolled-back delta's buffers")
	}
	if err := g.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	for _, s := range g.secs {
		if s.installed != land {
			t.Fatalf("replica %d at epoch %d after the drain, want the landing epoch %d", s.id, s.installed, land)
		}
	}
	check("drain")
}

// TestLargePayloadGoesToTheCollector: a released payload above
// keptPayloadMax — a populate cut's, mapped off the Go heap — leaves the free
// list its run list only, so its memory goes back with it, and the next
// capture gets a payload its own size.
func TestLargePayloadGoesToTheCollector(t *testing.T) {
	ctr, g, l := testWorld(t, 2)
	big := make([]byte, keptPayloadMax+4096)
	ctr.OnWrite(0, len(big))
	ctr.Write(0, big)
	cycle := func() *Delta {
		d := capture(t, g, ctr)
		if err := ctr.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		g.Ship(d, 0)
		if err := g.DeliverAll(); err != nil {
			t.Fatal(err)
		}
		return d
	}
	cycle()
	if n := len(g.free); n != 1 || g.free[0].payload != nil || cap(g.free[0].runs) == 0 {
		t.Fatalf("free list after a %d B payload: %d entries, payload kept %v", len(big), n, n > 0 && g.free[0].payload != nil)
	}
	writePattern(ctr, l, 1, 7)
	d := capture(t, g, ctr)
	if cap(d.Payload) != 256 {
		t.Fatalf("a one-block capture after it got a %d B payload, want 256", cap(d.Payload))
	}
}

// TestCaptureShipDeliverAllocsConstant is the allocation guard of recycled
// buffers: once warm, a capture → Ship → Deliver cycle allocates the same
// whether the epoch wrote one run or 64, since the run list and payload come
// off the free list.
func TestCaptureShipDeliverAllocsConstant(t *testing.T) {
	const runs = 64
	ctr, g, l := smallSegWorld(t, runs, 2)
	var word [8]byte
	cycle := func(n int) {
		for seg := 0; seg < n; seg++ {
			ctr.OnWrite(seg*l.SegSize, len(word))
			ctr.Write(seg*l.SegSize, word[:])
		}
		d := capture(t, g, ctr)
		if len(d.Runs) != n {
			t.Fatalf("%d stores a segment apart captured as %d runs", n, len(d.Runs))
		}
		if err := ctr.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		g.Ship(d, 0)
		if err := g.DeliverAll(); err != nil {
			t.Fatal(err)
		}
	}
	cycle(runs) // warm the free list at the largest footprint
	few := testing.AllocsPerRun(20, func() { cycle(1) })
	many := testing.AllocsPerRun(20, func() { cycle(runs) })
	t.Logf("allocs per cycle: %.0f at 1 dirty run, %.0f at %d", few, many, runs)
	if few != many {
		t.Fatalf("a cycle allocates %.0f objects at 1 dirty run but %.0f at %d; want the same", few, many, runs)
	}
}
