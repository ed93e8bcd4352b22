package server

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"libcrpm/internal/core"
	"libcrpm/internal/region"
	"libcrpm/internal/workload"
)

// TestOracleJournalMatchesFullCopy is the journal ≡ full copy property:
// under random put / RMW / delete / insert streams with cuts at random
// points, the image the undo journal reconstructs for every retained cut —
// materialised (snapAt) and by point lookup (at) — equals a reference full
// copy of the live map taken at that cut, and epochs outside the retention
// window are refused. The scenarios cover the three retention rules the
// service uses: the plain two-cut recovery window, the replicated floor
// (the slowest secondary's installed epoch, which lags arbitrarily), and a
// split-spawned shard whose images are asked for by global epoch through
// its join offset.
func TestOracleJournalMatchesFullCopy(t *testing.T) {
	scenarios := []struct {
		name string
		// epochOff maps local cut epochs to the global numbering verifiers
		// ask in (nonzero for a shard spawned by a split).
		epochOff uint64
		// floor returns the retention floor for the cut producing epoch
		// next, given the previous floor (snapshotForNextCut's rule).
		floor func(rng *rand.Rand, next, prev uint64) uint64
	}{
		{"recovery window", 0, func(_ *rand.Rand, next, _ uint64) uint64 { return next - 1 }},
		{"replicated floor", 0, func(rng *rand.Rand, next, prev uint64) uint64 {
			// MinInstalled: never ahead of the recovery window, never
			// moving backwards, catching up in random strides.
			inst := prev + uint64(rng.Intn(3))
			return min(next-1, inst)
		}},
		{"split-spawned", 7, func(_ *rand.Rand, next, _ uint64) uint64 { return next - 1 }},
	}
	for _, sc := range scenarios {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", sc.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				o := newOracle()
				ref := map[uint64]map[uint64]uint64{} // global epoch -> full copy
				const keys = 64
				fresh := uint64(keys)
				mutate := func() {
					k := uint64(rng.Intn(keys))
					switch rng.Intn(4) {
					case 0:
						o.put(k, rng.Uint64())
					case 1: // RMW
						o.put(k, o.live[k]+rng.Uint64())
					case 2:
						o.del(k)
					default: // insert of a never-seen key
						o.put(fresh, rng.Uint64())
						fresh++
					}
				}
				check := func(next, floor uint64) {
					t.Helper()
					for g, want := range ref {
						local := g - sc.epochOff
						got, ok := o.snapAt(local)
						if !ok || !reflect.DeepEqual(got, want) {
							t.Fatalf("cut %d (local %d): snapAt = %v, %v; want %v", g, local, got, ok, want)
						}
						for k := uint64(0); k < fresh; k++ {
							gv, gok := o.at(local, k)
							wv, wok := want[k]
							if gv != wv || gok != wok {
								t.Fatalf("cut %d key %d: at = %d,%v want %d,%v", g, k, gv, gok, wv, wok)
							}
						}
					}
					outside := []uint64{next + 1}
					if floor > 0 {
						outside = append(outside, floor-1)
					}
					for _, e := range outside {
						if _, ok := o.snapAt(e); ok || o.retains(e) {
							t.Fatalf("epoch %d outside [%d,%d] is still retained", e, floor, next)
						}
					}
				}
				if sc.epochOff == 0 {
					// Populate before the first cut; a joined shard's first
					// image (its bring-up checkpoint) is empty instead.
					for k := uint64(0); k < keys; k++ {
						o.put(k, k)
					}
				}
				var next, floor uint64
				for step := 0; step < 1500; step++ {
					if next > 0 {
						mutate()
					}
					if next == 0 || rng.Intn(40) == 0 {
						next++
						floor = sc.floor(rng, next, floor)
						o.cut(next, floor)
						cp := make(map[uint64]uint64, len(o.live))
						for k, v := range o.live {
							cp[k] = v
						}
						ref[sc.epochOff+next] = cp
						for g := range ref {
							if g-sc.epochOff < floor {
								delete(ref, g)
							}
						}
						check(next, floor)
					}
				}
				check(next, floor)
				if next < 10 {
					t.Fatalf("only %d cuts exercised", next)
				}
			})
		}
	}
}

// allocPerRun reports the mean heap objects and bytes one call of f
// allocates (testing.AllocsPerRun counts objects only, and a full map copy
// is few objects but many bytes).
func allocPerRun(runs int, f func()) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(runs), float64(b.TotalAlloc-a.TotalAlloc) / float64(runs)
}

// TestSteadyStateCutAllocsConstant is the host-cost guard for frequent
// cuts: once warm, one whole cut of a shard — mark the oracle's image
// (snapshotForNextCut), CheckpointBegin, stores staged behind the write
// barrier, flush quanta, CheckpointCommit, replay quanta — allocates a
// constant handful of objects and bytes. In particular it does not scale
// with the key count (the full shadow copy this replaced: ~40 B per key)
// or with the staged block count (the 256 B per-block aside images the
// pipeline now pools).
func TestSteadyStateCutAllocsConstant(t *testing.T) {
	perCut := func(keys int) (objects, bytes float64) {
		reg := region.Config{HeapSize: 4 << 20, BackupRatio: 1}
		l, err := region.NewLayout(reg)
		if err != nil {
			t.Fatal(err)
		}
		sh := newShardShell(0, l.DeviceSize(), 4096, false)
		ctr, err := core.NewContainer(sh.dev, core.Options{Region: reg, EagerCoWSegments: -1})
		if err != nil {
			t.Fatal(err)
		}
		if err := sh.init(ctr, DSHashMap, 1<<10); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < keys; k++ {
			if err := sh.apply(k, workload.Op{Kind: workload.OpInsert, Key: uint64(k), Value: 1}); err != nil {
				t.Fatal(err)
			}
		}
		seq := keys
		update := func(n int) {
			for i := 0; i < n; i++ {
				seq++
				k := uint64(seq*7919) % uint64(keys)
				if err := sh.apply(seq, workload.Op{Kind: workload.OpUpdate, Key: k, Value: uint64(seq)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		cut := func() {
			update(keys / 4)
			sh.snapshotForNextCut()
			if err := sh.core.CheckpointBegin(); err != nil {
				t.Fatal(err)
			}
			update(keys / 4) // staged behind the write barrier
			for rem := 1; rem > 0; {
				if rem, err = sh.core.CheckpointStep(sh.stepBudget); err != nil {
					t.Fatal(err)
				}
			}
			if err := sh.core.CheckpointCommit(); err != nil {
				t.Fatal(err)
			}
			for sh.core.CheckpointInFlight() {
				if _, err := sh.core.CheckpointStep(sh.stepBudget); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 16; i++ {
			cut() // warm the journal and image pools to their steady size
		}
		// The KV's stores allocate on their own (one escaping 8-byte buffer
		// per heap word written); charge the cut only its excess over the
		// same stores issued straight to the KV with no cut in flight.
		so, sb := allocPerRun(10, func() {
			for i := 0; i < keys/4+keys/4; i++ {
				seq++
				if err := sh.kv.Put(uint64(seq*7919)%uint64(keys), uint64(seq)); err != nil {
					t.Fatal(err)
				}
			}
		})
		co, cb := allocPerRun(10, cut)
		return co - so, cb - sb
	}
	for _, keys := range []int{512, 8192} {
		objects, bytes := perCut(keys)
		t.Logf("steady-state cut at %d keys: %.1f objects, %.0f bytes", keys, objects, bytes)
		if objects > 8 || bytes > 4096 {
			t.Fatalf("a steady-state cut at %d keys allocates %.1f objects / %.0f bytes; want O(1)", keys, objects, bytes)
		}
	}
}
