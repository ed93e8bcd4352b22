package ring

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestRingMatchesModuloRouting pins the compatibility identity the ring's
// boot layout is designed around: for every boot shard count N, the slot
// count N*V is a multiple of N, so
//
//	Owner(key) = (Hash(key) % (N*V)) % N = Hash(key) % N
//
// — exactly the modulo router the service shipped with. Every existing
// golden (serve_budget0, the service/slo/crossover figures) depends on the
// shards=N no-migration configuration staying byte-identical; this test is
// the pin.
func TestRingMatchesModuloRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, shards := range []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 64} {
		r := New(shards, DefaultVnodes)
		for i := 0; i < 20000; i++ {
			var key uint64
			switch i % 3 {
			case 0:
				key = uint64(i) // sequential
			case 1:
				key = rng.Uint64() // uniform
			default:
				key = uint64(i) << 40 // sparse high bits
			}
			want := int(Hash(key) % uint64(shards))
			if got := r.Owner(key); got != want {
				t.Fatalf("shards=%d key=%#x: ring owner %d, modulo %d", shards, key, got, want)
			}
		}
	}
}

// TestRingDistribution property-tests the point hash's load spread: over a
// large key population every shard's share stays within 20%% of the mean,
// for both sequential and random keys.
func TestRingDistribution(t *testing.T) {
	const keys = 200000
	rng := rand.New(rand.NewSource(2))
	for _, shards := range []int{2, 5, 8} {
		r := New(shards, DefaultVnodes)
		counts := make([]int, shards)
		for i := 0; i < keys; i++ {
			k := uint64(i)
			if i%2 == 1 {
				k = rng.Uint64()
			}
			counts[r.Owner(k)]++
		}
		mean := float64(keys) / float64(shards)
		for sh, n := range counts {
			if frac := float64(n) / mean; frac < 0.8 || frac > 1.2 {
				t.Fatalf("shards=%d: shard %d holds %.2fx mean load (%d keys)", shards, sh, frac, n)
			}
		}
	}
}

// split and merge spell the two whole-shard reassignments the way the server
// does: pick the span, move it.
func split(r *Ring, src int) (int, Span, error) {
	sp, err := r.SplitSpan(src)
	if err != nil {
		return 0, Span{}, err
	}
	dst := r.Shards()
	return dst, sp, r.Move(sp, dst)
}

func merge(r *Ring, src, dst int) error { return r.Move(r.AllSpan(src), dst) }

// TestEveryKeyHasOneOwnerAtEveryEpoch drives a ring through a random
// split/merge/move sequence and checks the resharding safety property
// against the live table after every move, including mid-split: each slot,
// and so each key, has exactly one owner inside the dense shard id space,
// and only the moved span changed hands.
func TestEveryKeyHasOneOwnerAtEveryEpoch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := New(3, 8)
	moves := 0
	for step := 0; step < 40; step++ {
		before := r.Table()
		var sp Span
		var dst int
		var err error
		switch rng.Intn(3) {
		case 0: // split a splittable shard
			src := rng.Intn(r.Shards())
			if r.Weight(src) < 2 {
				continue
			}
			dst, sp, err = split(r, src)
		case 1: // merge a live shard into another live shard
			var src int
			src, dst = rng.Intn(r.Shards()), rng.Intn(r.Shards())
			if src == dst || r.Weight(src) == 0 || r.Weight(dst) == 0 {
				continue
			}
			sp = r.AllSpan(src)
			err = merge(r, src, dst)
		default: // move half a shard's slots to another live shard
			var src int
			src, dst = rng.Intn(r.Shards()), rng.Intn(r.Shards())
			if src == dst || r.Weight(src) < 2 || r.Weight(dst) == 0 {
				continue
			}
			if sp, err = r.SplitSpan(src); err == nil {
				err = r.Move(sp, dst)
			}
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		moves++
		moved := sp.SlotSet()
		table := r.Table()
		for s, o := range table {
			switch {
			case o < 0 || o >= r.Shards():
				t.Fatalf("step %d slot %d: owner %d outside id space [0,%d)", step, s, o, r.Shards())
			case moved[s] && o != dst:
				t.Fatalf("step %d slot %d: in the moved span but owned by %d, want %d", step, s, o, dst)
			case !moved[s] && o != before[s]:
				t.Fatalf("step %d slot %d: outside the moved span yet changed owner %d -> %d", step, s, before[s], o)
			}
		}
		for i := 0; i < 500; i++ {
			key := rng.Uint64()
			owners := 0
			for sh := 0; sh < r.Shards(); sh++ {
				if table[r.Slot(key)] == sh {
					owners++
				}
			}
			if owners != 1 || r.Owner(key) != table[r.Slot(key)] {
				t.Fatalf("step %d key %#x: %d owners (Owner=%d)", step, key, owners, r.Owner(key))
			}
		}
	}
	if moves < 10 {
		t.Fatalf("only %d of 40 steps moved anything", moves)
	}
}

// TestSplitMovesOnlySpan pins the consistent-hashing property: a split
// changes ownership only for keys inside the moved span.
func TestSplitMovesOnlySpan(t *testing.T) {
	r := New(4, DefaultVnodes)
	before := r.Table()
	dst, sp, err := split(r, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dst != 4 {
		t.Fatalf("split assigned id %d, want 4", dst)
	}
	moved := sp.SlotSet()
	for s, o := range r.Table() {
		switch {
		case moved[s] && o != dst:
			t.Fatalf("slot %d in span owned by %d, want %d", s, o, dst)
		case !moved[s] && o != before[s]:
			t.Fatalf("slot %d outside span changed owner %d -> %d", s, before[s], o)
		}
	}
	if w1, wd := r.Weight(1), r.Weight(dst); w1 != DefaultVnodes/2 || wd != DefaultVnodes/2 {
		t.Fatalf("post-split weights src=%d dst=%d, want %d each", w1, wd, DefaultVnodes/2)
	}
}

// TestMergeRetiresSource checks a merge empties the source and that moving
// into a retired shard's id is still possible (re-expansion).
func TestMergeRetiresSource(t *testing.T) {
	r := New(3, 4)
	if err := merge(r, 2, 0); err != nil {
		t.Fatal(err)
	}
	if w := r.Weight(2); w != 0 {
		t.Fatalf("retired shard still owns %d slots", w)
	}
	if r.Shards() != 3 {
		t.Fatalf("id space shrank to %d", r.Shards())
	}
	sp, err := r.SplitSpan(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Move(sp, 2); err != nil {
		t.Fatalf("re-expanding retired shard: %v", err)
	}
	if r.Weight(2) == 0 {
		t.Fatal("re-expansion moved nothing")
	}
}

// TestMoveRejects covers the mutation error surface.
func TestMoveRejects(t *testing.T) {
	r := New(2, 4)
	cases := []struct {
		name string
		sp   Span
		dst  int
	}{
		{"empty span", Span{}, 0},
		{"sparse id", Span{Slots: []int{0}}, 5},
		{"negative dst", Span{Slots: []int{0}}, -1},
		{"slot out of range", Span{Slots: []int{99}}, 0},
		{"unsorted", Span{Slots: []int{3, 1}}, 0},
		{"already owned", Span{Slots: []int{0}}, 0}, // slot 0 owned by shard 0
	}
	for _, tc := range cases {
		if err := r.Move(tc.sp, tc.dst); err == nil {
			t.Fatalf("%s: move accepted", tc.name)
		}
	}
	if !reflect.DeepEqual(r.Table(), New(2, 4).Table()) || r.Shards() != 2 {
		t.Fatalf("rejected moves changed the ring: %v, %d shards", r.Table(), r.Shards())
	}
	if _, err := New(1, 1).SplitSpan(0); err == nil {
		t.Fatal("split of single-slot shard accepted")
	}
}

// TestCloneIsIndependent guards the per-rank clone contract: mutating a
// clone never changes the parent.
func TestCloneIsIndependent(t *testing.T) {
	r := New(2, 4)
	c := r.Clone()
	if _, _, err := split(c, 0); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Table(), New(2, 4).Table()) || r.Shards() != 2 {
		t.Fatalf("parent mutated: table=%v shards=%d", r.Table(), r.Shards())
	}
	if c.Weight(2) != 2 || c.Shards() != 3 {
		t.Fatalf("clone not mutated: table=%v shards=%d", c.Table(), c.Shards())
	}
}
