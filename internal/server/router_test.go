package server

import (
	"testing"

	"libcrpm/internal/ring"
)

// TestRouterMatchesModulo pins the router-level half of the ring's
// compatibility identity: for every boot shard count, Shard(key) equals
// the splitmix64-modulo routing the service shipped with, so the ring
// swap cannot move a single key of any existing configuration (all
// goldens — serve_budget0, the service/slo/crossover figures — ride on
// this).
func TestRouterMatchesModulo(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4, 6, 8, 16} {
		r := NewRouter(shards)
		for i := 0; i < 50000; i++ {
			key := uint64(i) * 0x9e3779b97f4a7c15
			want := int(ring.Hash(key) % uint64(shards))
			if got := r.Shard(key); got != want {
				t.Fatalf("shards=%d key=%#x: router %d, modulo %d", shards, key, got, want)
			}
		}
	}
}

// TestRouterDistribution property-tests the documented distribution
// claim: over a large key population — sequential keys, the worst case
// for a weak point hash — every shard's share stays within 15% of the
// mean.
func TestRouterDistribution(t *testing.T) {
	const keys = 300000
	for _, shards := range []int{2, 3, 5, 8} {
		r := NewRouter(shards)
		counts := make([]int, shards)
		for k := uint64(0); k < keys; k++ {
			s := r.Shard(k)
			if s < 0 || s >= shards {
				t.Fatalf("shards=%d: key %d routed to %d", shards, k, s)
			}
			counts[s]++
		}
		mean := float64(keys) / float64(shards)
		for sh, n := range counts {
			if frac := float64(n) / mean; frac < 0.85 || frac > 1.15 {
				t.Fatalf("shards=%d: shard %d holds %.3fx mean load (%d keys)", shards, sh, frac, n)
			}
		}
	}
}

// TestRouterRingSwap checks SetRing atomically re-points routing: after
// swapping in a post-split ring, exactly the moved span's keys change
// owner, and Shards() reflects the grown id space.
func TestRouterRingSwap(t *testing.T) {
	r := NewRouter(4)
	before := make(map[uint64]int)
	for k := uint64(0); k < 10000; k++ {
		before[k] = r.Shard(k)
	}
	rg := r.Ring().Clone()
	dst := rg.Shards()
	sp, err := rg.SplitSpan(2)
	if err == nil {
		err = rg.Move(sp, dst)
	}
	if err != nil {
		t.Fatal(err)
	}
	r.SetRing(rg)
	if r.Shards() != 5 {
		t.Fatalf("Shards() %d after split swap, want 5", r.Shards())
	}
	moved := sp.SlotSet()
	for k := uint64(0); k < 10000; k++ {
		got := r.Shard(k)
		if moved[rg.Slot(k)] {
			if got != dst {
				t.Fatalf("key %d in moved span routed to %d, want %d", k, got, dst)
			}
			continue
		}
		if got != before[k] {
			t.Fatalf("key %d outside span moved %d -> %d", k, before[k], got)
		}
	}
}
