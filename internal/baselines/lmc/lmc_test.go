package lmc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"libcrpm/internal/ckpt"
	"libcrpm/internal/nvm"
	"libcrpm/internal/sched"
)

func writeU64(b *Backend, off int, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	b.OnWrite(off, 8)
	b.Write(off, buf[:])
}

func readU64(b *Backend, off int) uint64 {
	return binary.LittleEndian.Uint64(b.Bytes()[off:])
}

func TestCheckpointCrashRecover(t *testing.T) {
	b, err := New(64 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	writeU64(b, 0, 11)
	writeU64(b, 30000, 22)
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	writeU64(b, 0, 99)
	b.Device().CrashPersistAll()
	b2, err := Open(64*1024, b.Device())
	if err != nil {
		t.Fatal(err)
	}
	if got := readU64(b2, 0); got != 11 {
		t.Fatalf("off 0 = %d, want 11", got)
	}
	if got := readU64(b2, 30000); got != 22 {
		t.Fatalf("off 30000 = %d, want 22", got)
	}
}

func TestTwoFencesPerRecord(t *testing.T) {
	b, err := New(64 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	before := b.Device().Stats().SFences
	writeU64(b, 0, 1)
	if got := b.Device().Stats().SFences - before; got != 2 {
		t.Fatalf("record cost %d fences, want 2", got)
	}
	writeU64(b, 16, 2)
	if got := b.Device().Stats().SFences - before; got != 2 {
		t.Fatalf("same granule re-fenced: %d", got)
	}
}

func TestLMCCheaperThanUndoLogPerEpoch(t *testing.T) {
	// LMC has no log-head metadata: fewer flushes per record and no
	// truncation store, so an identical workload must cost no more
	// simulated time than the undo log. (Verified indirectly: CLWBs.)
	b, err := New(64 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		writeU64(b, i*256, uint64(i))
	}
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// 20 records via NT stores: no per-record clwb at all; checkpoint
	// flushes 20 granules (4 lines each) + epoch line.
	clwbs := b.Device().Stats().CLWBs
	if clwbs > 20*4+4 {
		t.Fatalf("LMC used %d clwbs, more than flush-only budget", clwbs)
	}
}

func TestEpochTagInvalidation(t *testing.T) {
	// Records from a committed epoch must not be applied at recovery.
	b, err := New(32 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	writeU64(b, 0, 1)
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	writeU64(b, 0, 2)
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Crash with no writes in the new epoch: nothing to roll back.
	b.Device().CrashDropAll()
	b2, err := Open(32*1024, b.Device())
	if err != nil {
		t.Fatal(err)
	}
	if got := readU64(b2, 0); got != 2 {
		t.Fatalf("got %d, want 2 (stale record applied?)", got)
	}
}

func TestRandomizedCrashRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 12; trial++ {
		b, err := New(32 * 1024)
		if err != nil {
			t.Fatal(err)
		}
		shadow := make([]byte, b.Size())
		steps := rng.Intn(80) + 10
		for i := 0; i < steps; i++ {
			if i%11 == 10 {
				if err := b.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				copy(shadow, b.Bytes())
				continue
			}
			writeU64(b, rng.Intn(b.Size()/8-1)*8, rng.Uint64())
		}
		b.Device().Crash(rng)
		b2, err := Open(32*1024, b.Device())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b2.Bytes(), shadow) {
			t.Fatalf("trial %d: recovered state differs from last checkpoint", trial)
		}
	}
}

func TestCrashSweepInsideProtocol(t *testing.T) {
	size := 16 * 1024
	var fails []int64
	for fail := int64(5); fail < 2500; fail += 31 {
		fails = append(fails, fail)
	}
	for _, pol := range crashPolicies {
		// Independent sched cells, one per crash point; the seeded schedule
		// hashes the cell identity instead of sharing a loop-order rng.
		_, err := sched.MapErr(len(fails), sched.Options{}, func(ci int) (struct{}, error) {
			fail := fails[ci]
			b, err := New(size)
			if err != nil {
				return struct{}{}, err
			}
			shadows := map[uint64][]byte{0: make([]byte, size)}
			epoch := uint64(0)
			func() {
				defer func() {
					if r := recover(); r != nil {
						if _, ok := r.(nvm.InjectedCrash); !ok {
							panic(r)
						}
					}
				}()
				b.Device().FailAfter(fail)
				for i := 0; i < 40; i++ {
					if i%9 == 8 {
						snap := make([]byte, size)
						copy(snap, b.Bytes())
						shadows[epoch+1] = snap
						if err := b.Checkpoint(); err != nil {
							panic(err)
						}
						epoch++
						continue
					}
					writeU64(b, (i*264)%(size-8), uint64(i+1))
				}
			}()
			b.Device().FailAfter(-1)
			if pol.policy != nil {
				b.Device().CrashWith(pol.policy)
			} else {
				seed := sched.SeedFor(fmt.Sprintf("lmc/%s/%d", pol.name, fail))
				b.Device().Crash(rand.New(rand.NewSource(seed)))
			}
			b2, err := Open(size, b.Device())
			if err != nil {
				return struct{}{}, err
			}
			e := ckpt.CommitWord(b2.Device())
			want, ok := shadows[e]
			if !ok {
				return struct{}{}, fmt.Errorf("%s fail %d: recovered to unseen epoch %d", pol.name, fail, e)
			}
			if !bytes.Equal(b2.Bytes(), want) {
				return struct{}{}, fmt.Errorf("%s fail %d: recovered state differs from epoch %d", pol.name, fail, e)
			}
			return struct{}{}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// crashPolicies are the cache-eviction outcomes the crash sweep runs under:
// the seeded coin-flip schedule (nil policy) plus both deterministic
// extremes — every unguaranteed line persisted, and every one dropped.
var crashPolicies = []struct {
	name   string
	policy nvm.CrashPolicy // nil: seeded per-line coin flips
}{
	{"seeded", nil},
	{"persist-all", nvm.PersistAll},
	{"drop-all", nvm.DropAll},
}

func TestOpenRejectsBadDevice(t *testing.T) {
	if _, err := Open(32*1024, nvm.NewDevice(1024)); err == nil {
		t.Fatal("Open on tiny device succeeded")
	}
	if _, err := Open(32*1024, nvm.NewDevice(64<<20)); err == nil {
		t.Fatal("Open on unformatted device succeeded")
	}
}
