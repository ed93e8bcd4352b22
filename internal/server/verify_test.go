package server

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"libcrpm/internal/pds"
	"libcrpm/internal/ring"
	"libcrpm/internal/workload"
)

// fakeKV is a KV whose walk and Len are given outright: the corruptions a
// real structure cannot be driven into on purpose. ForEach walks every one
// of pairs, in order, until fn stops it: verifyKV stops after the first n,
// as Scan(0, n) would.
type fakeKV struct {
	pds.KV
	pairs []pds.Pair
	n     int
}

func (k fakeKV) Len() int { return k.n }

func (k fakeKV) ForEach(fn func(k, v uint64) bool) {
	for _, p := range k.pairs {
		if !fn(p.Key, p.Value) {
			return
		}
	}
}

// TestVerifyKVDetails pins every detail line verifyKV reports, against an
// image of keys 3, 7 and 9: the scan/Len count (a walk that repeats a pair
// or drops one Len counts), and the missing, wrong and extra keys, each
// kind counted and named by its smallest key, in that order. A key a walk
// repeats counts once, by its pair with the largest value. Only the keys
// walked find a walk of Len pairs that repeats one key and drops another.
func TestVerifyKVDetails(t *testing.T) {
	want := image{live: map[uint64]uint64{3: 103, 7: 105, 9: 109}, n: 3}
	p := func(k, v uint64) pds.Pair { return pds.Pair{Key: k, Value: v} }
	for _, c := range []struct {
		name  string
		pairs []pds.Pair
		n     int
		want  []string
	}{
		{"exact", []pds.Pair{p(9, 109), p(3, 103), p(7, 105)}, 3, nil},
		{"repeated pair", []pds.Pair{p(3, 103), p(3, 103), p(7, 105), p(9, 109)}, 3,
			[]string{"scan returned 2 keys, Len reports 3", "1 missing keys (first: 9, want 109)"}},
		{"dropped pair", []pds.Pair{p(3, 103), p(9, 109)}, 3,
			[]string{"scan returned 2 keys, Len reports 3", "1 missing keys (first: 7, want 105)"}},
		{"wrong value", []pds.Pair{p(3, 103), p(7, 1004), p(9, 109)}, 3,
			[]string{"1 wrong keys (first: 7, got 1004 want 105)"}},
		{"extra key", []pds.Pair{p(12, 1), p(3, 103), p(7, 105), p(9, 109)}, 4,
			[]string{"1 extra keys (first: 12, got 1)"}},
		{"missing key", []pds.Pair{p(9, 109), p(3, 103)}, 2,
			[]string{"1 missing keys (first: 7, want 105)"}},
		{"every kind", []pds.Pair{p(13, 1), p(9, 0), p(11, 5), p(2, 2)}, 4,
			[]string{"2 missing keys (first: 3, want 103)", "1 wrong keys (first: 9, got 0 want 109)", "3 extra keys (first: 2, got 2)"}},
		{"repeat, last right", []pds.Pair{p(7, 105), p(3, 103), p(7, 1), p(9, 109)}, 4,
			[]string{"scan returned 3 keys, Len reports 4"}},
		{"repeat, last wrong", []pds.Pair{p(7, 2000), p(3, 103), p(7, 1), p(9, 109)}, 4,
			[]string{"scan returned 3 keys, Len reports 4", "1 wrong keys (first: 7, got 2000 want 105)"}},
		{"empty", nil, 0, []string{"3 missing keys (first: 3, want 103)"}},
		{"repeat for a drop", []pds.Pair{p(3, 103), p(9, 109), p(3, 103)}, 3,
			[]string{"scan returned 2 keys, Len reports 3", "1 missing keys (first: 7, want 105)"}},
	} {
		if got := verifyKV(fakeKV{pairs: c.pairs, n: c.n}, want, nil); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: verifyKV = %q, want %q", c.name, got, c.want)
		}
	}
}

// TestStrandedKeyIsAnOwnershipViolation: a key the ring gives shard 1 that
// also sits in shard 0's KV and oracle passes shard 0's own check, and the
// replay check — shard 0's KV against the replay's keys the ring gives it —
// reports it there, as an extra key, through the clean tail and the crashed
// one alike. The two shards serve a short run by hand, each op on its key's
// owner, so the replay matches both otherwise.
//
// The handover cases crash once a move of a slot from shard 0 to shard 1
// has flipped; no populated key maps to that slot. Shards 0 and 1 each
// hold one key in it that the replay does not. Until the source's
// deletions commit, shard 0 may still hold the span's keys; shard 1, their
// owner, may never hold one the replay lacks.
func TestStrandedKeyIsAnOwnershipViolation(t *testing.T) {
	for _, tail := range []string{"clean", "crashed", "crashed mid-handover", "crashed after the handover"} {
		t.Run(tail, func(t *testing.T) {
			s := newService(t, Config{Shards: 2, Clients: 2, Mix: workload.YCSBA, Ops: 300, Keys: 64, Seed: 7})
			s.shards = []*shard{newCoreShard(t), newCoreShard(t)}
			owner := func(k uint64) *shard { return s.shards[s.ring.Owner(k)] }
			for id, sh := range s.shards {
				sh.id, sh.ring = id, s.ring.Clone()
				sh.appliedBits = make([]uint64, (s.cfg.Ops+63)/64)
			}
			for k := uint64(0); k < s.cfg.Keys; k++ {
				if err := owner(k).kv.Put(k, k); err != nil {
					t.Fatal(err)
				}
				owner(k).shadow.put(k, k)
			}
			gens := s.newGenerators()
			for seq := 0; seq < s.cfg.Ops; seq++ {
				op := gens[seq%len(gens)].Next()
				if err := owner(op.Key).apply(seq, op); err != nil {
					t.Fatal(err)
				}
				markApplied(owner(op.Key).appliedBits, seq)
			}
			hold := func(sh *shard, key, val uint64) {
				if err := sh.kv.Put(key, val); err != nil {
					t.Fatal(err)
				}
				sh.shadow.put(key, val)
			}
			stray := func(key uint64) Violation {
				return Violation{Shard: 0, Stage: "ownership", Detail: fmt.Sprintf("1 extra keys (first: %d, got 5)", key)}
			}

			// A migration that started at the landing cut, so the replay
			// check runs and no span is in flight.
			s.migs = []*migration{{epoch: 1}}
			var want []Violation
			if !strings.HasSuffix(tail, "handover") {
				key := uint64(0)
				for s.ring.Owner(key) != 1 {
					key++
				}
				hold(s.shards[0], key, 5)
				want = []Violation{stray(key)}
			} else {
				slot := emptySlot(t, s.ring, 0, s.cfg.Keys)
				var keys []uint64
				for k := s.cfg.Keys; len(keys) < 2; k++ {
					if s.ring.Slot(k) == slot {
						keys = append(keys, k)
					}
				}
				hold(s.shards[0], keys[0], 5)
				hold(s.shards[1], keys[1], 6)
				m := &migration{src: 0, dst: 1, span: ring.Span{Slots: []int{slot}}, slots: map[int]bool{slot: true}, flipEpoch: 1, cleanEpoch: 2}
				want = []Violation{{Shard: 1, Stage: "ownership", Detail: fmt.Sprintf("1 extra keys (first: %d, got 6)", keys[1])}}
				if tail == "crashed after the handover" {
					m.cleanEpoch = 1
					want = append([]Violation{stray(keys[0])}, want...)
				}
				s.migs = []*migration{m}
			}
			res := &Result{}
			if tail == "clean" {
				s.verifyClean(res)
			} else {
				for _, sh := range s.shards {
					sh.snapshotForNextCut()
					if err := sh.ctr.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					sh.cutOps = map[uint64]int{1: s.cfg.Ops}
				}
				res.Recovered = true
				s.verifyLanding(res, 1, s.shards, nil, []CutBackend{s.shards[0].ctr, s.shards[1].ctr})
			}
			if !reflect.DeepEqual(res.Violations, want) {
				t.Fatalf("violations %v, want %v", res.Violations, want)
			}
		})
	}
}

// emptySlot is a slot rg gives shard that no key below keys maps to.
func emptySlot(t *testing.T, rg *ring.Ring, shard int, keys uint64) int {
	t.Helper()
	used := map[int]bool{}
	for k := uint64(0); k < keys; k++ {
		used[rg.Slot(k)] = true
	}
	for _, slot := range rg.OwnedSlots(shard) {
		if !used[slot] {
			return slot
		}
	}
	t.Fatalf("every slot of shard %d holds a key below %d", shard, keys)
	return 0
}
