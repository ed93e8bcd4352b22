//go:build unix && !race

package replica

import (
	"runtime"
	"runtime/debug"
	"testing"

	"libcrpm/internal/core"
)

// writeBig writes more than keptPayloadMax bytes into ctr's epoch, as a
// populate cut does, and returns how many.
func writeBig(ctr *core.Container) int {
	big := make([]byte, keptPayloadMax+4096)
	for i := range big {
		big[i] = byte(i%251 + 1)
	}
	ctr.OnWrite(0, len(big))
	ctr.Write(0, big)
	return len(big)
}

// sink keeps a faulting read from being compiled away.
var sink byte

// faults reports whether fn faulted on a memory access.
func faults(fn func()) (faulted bool) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() { faulted = recover() != nil }()
	fn()
	return false
}

// TestLargePayloadLeavesTheHeap: capturing a payload above keptPayloadMax
// copies it into a secondary's simulated DRAM, not onto the Go heap.
func TestLargePayloadLeavesTheHeap(t *testing.T) {
	ctr, g, _ := testWorld(t, 2)
	n := writeBig(ctr)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := capture(t, g, ctr)
	runtime.ReadMemStats(&after)
	if len(d.Payload) != n {
		t.Fatalf("captured %d payload bytes, want %d", len(d.Payload), n)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<10 {
		t.Errorf("capturing a %d B payload allocated %d KiB on the Go heap, want under 64", len(d.Payload), alloc>>10)
	}
}

// TestLargePayloadUnmappedAtLastRelease: a mapped payload stays readable
// while any receive buffer holds its delta and faults once the last lets go,
// whichever way that is: an install on every secondary, DropAbove, or a
// promotion's recovery or rollback. One never shipped is unmapped by the
// device's Close.
func TestLargePayloadUnmappedAtLastRelease(t *testing.T) {
	for _, c := range []struct {
		name     string
		replicas int
		release  func(t *testing.T, g *Group, check func(last bool))
	}{
		{"install on every secondary", 2, func(t *testing.T, g *Group, check func(bool)) {
			for i, s := range g.secs {
				if err := g.installNext(s); err != nil {
					t.Fatal(err)
				}
				check(i == len(g.secs)-1)
			}
		}},
		{"DropAbove", 2, func(t *testing.T, g *Group, check func(bool)) {
			g.DropAbove(0)
			check(true)
		}},
		{"promotion", 1, func(t *testing.T, g *Group, check func(bool)) {
			prom, err := g.Promotion()
			if err != nil {
				t.Fatal(err)
			}
			if err := prom.Recover(); err != nil {
				t.Fatal(err)
			}
			check(true)
		}},
		{"promotion rollback", 1, func(t *testing.T, g *Group, check func(bool)) {
			prom, err := g.Promotion()
			if err != nil {
				t.Fatal(err)
			}
			if err := prom.RollbackOneEpoch(); err != nil {
				t.Fatal(err)
			}
			check(true)
		}},
		{"never shipped", 2, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			ctr, g, _ := testWorld(t, c.replicas)
			writeBig(ctr)
			d := capture(t, g, ctr)
			p := d.Payload
			if c.release == nil {
				g.dram().Close()
				if !faults(func() { sink = p[0] }) {
					t.Error("a payload never shipped is still mapped after its device closed")
				}
				return
			}
			if err := ctr.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			g.Ship(d, 0)
			c.release(t, g, func(last bool) {
				t.Helper()
				if got := faults(func() { sink = p[len(p)-1] }); got != last {
					t.Fatalf("payload faults %v, want %v (last release %v)", got, last, last)
				}
			})
		})
	}
}
