package replica

import (
	"errors"
	"testing"

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
	reg := region.Config{HeapSize: 8 << 20, BackupRatio: 1}
	l, err := region.NewLayout(reg)
	if err != nil {
		t.Fatal(err)
	}
	opts := mpi.ContainerOptions(reg, core.ModeDefault)
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

// cutDelta mirrors the server's capture: boundary images of the epoch's
// dirty segments, taken just before the commit.
func cutDelta(ctr *core.Container, l *region.Layout) *Delta {
	segs := ctr.DirtySegments()
	heap := ctr.Bytes()
	d := &Delta{Epoch: ctr.CommittedEpoch() + 1, Segs: segs, Images: make([][]byte, len(segs))}
	for i, s := range segs {
		img := make([]byte, l.SegSize)
		copy(img, heap[s*l.SegSize:(s+1)*l.SegSize])
		d.Images[i] = img
		d.Bytes += l.SegSize
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

func TestDeltaInstallConvergence(t *testing.T) {
	ctr, g, l := testWorld(t, 2)
	for epoch := 1; epoch <= 3; epoch++ {
		writePattern(ctr, l, epoch, byte(epoch))
		d := cutDelta(ctr, l)
		if err := ctr.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		g.Ship(d, 0)
	}
	// Nothing due yet at time zero: ship lag keeps installs in the future.
	if n, err := g.Deliver(0); err != nil || n != 0 {
		t.Fatalf("Deliver(0) = %d, %v; want no installs", n, err)
	}
	if err := g.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	want := ctr.Bytes()
	for i := 0; i < g.Len(); i++ {
		sec := g.Sec(i)
		if sec.Installed() != 3 {
			t.Fatalf("replica %d installed %d cuts, want 3", i, sec.Installed())
		}
		got := sec.Container().Bytes()
		for seg := 1; seg <= 3; seg++ {
			off := seg * l.SegSize
			for b := 0; b < 256; b++ {
				if got[off+b] != want[off+b] {
					t.Fatalf("replica %d seg %d byte %d: got %d want %d", i, seg, b, got[off+b], want[off+b])
				}
			}
		}
	}
}

func TestDeliverRespectsLag(t *testing.T) {
	ctr, g, l := testWorld(t, 2)
	writePattern(ctr, l, 1, 0xAA)
	d := cutDelta(ctr, l)
	if err := ctr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	g.Ship(d, 1_000_000)
	// Replica 0 lags by the base, replica 1 by twice that: a delivery
	// point between the two installs exactly one.
	mid := 1_000_000 + ShipLatencyPS(0, d.Bytes)
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

func TestPromotionFromQueue(t *testing.T) {
	ctr, g, l := testWorld(t, 2)
	// Epoch 1 installed everywhere; epoch 2 shipped but still queued.
	writePattern(ctr, l, 1, 1)
	d1 := cutDelta(ctr, l)
	if err := ctr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	g.Ship(d1, 0)
	if err := g.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	writePattern(ctr, l, 2, 2)
	d2 := cutDelta(ctr, l)
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
	d1 := cutDelta(ctr, l)
	if err := ctr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	g.Ship(d1, 0)
	if err := g.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	writePattern(ctr, l, 2, 2)
	d2 := cutDelta(ctr, l)
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
	d1 := cutDelta(ctr, l)
	if err := ctr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	writePattern(ctr, l, 2, 2)
	d2 := cutDelta(ctr, l)
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
	d1 := cutDelta(ctr, l)
	if err := ctr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	writePattern(ctr, l, 2, 2)
	d2 := cutDelta(ctr, l)
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
