package pagecow

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

func mprotectCfg(size int) Config {
	return Config{Name: "Mprotect", HeapSize: size, FaultPerFirstWrite: true, MarkGranularityPages: 1, EpochScanPSPerPage: 20_000}
}

func softdirtyCfg(size int) Config {
	return Config{Name: "Soft-dirty bit", HeapSize: size, FaultPerFirstWrite: false, MarkGranularityPages: 4, EpochScanPSPerPage: 120_000}
}

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
	for _, cfg := range []Config{mprotectCfg(64 * 1024), softdirtyCfg(64 * 1024)} {
		b, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		writeU64(b, 0, 11)
		writeU64(b, 20000, 22)
		if err := b.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		writeU64(b, 0, 99) // uncommitted
		b.Device().CrashDropAll()
		b2, err := Open(cfg, b.Device())
		if err != nil {
			t.Fatal(err)
		}
		if got := readU64(b2, 0); got != 11 {
			t.Fatalf("%s: off 0 = %d, want 11", cfg.Name, got)
		}
		if got := readU64(b2, 20000); got != 22 {
			t.Fatalf("%s: off 20000 = %d, want 22", cfg.Name, got)
		}
	}
}

func TestMultiEpochAlternation(t *testing.T) {
	cfg := mprotectCfg(32 * 1024)
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= 7; e++ {
		writeU64(b, 100, e)
		if err := b.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	writeU64(b, 100, 999)
	b.Device().CrashDropAll()
	b2, err := Open(cfg, b.Device())
	if err != nil {
		t.Fatal(err)
	}
	if got := readU64(b2, 100); got != 7 {
		t.Fatalf("got %d, want 7", got)
	}
}

func TestFaultChargedOncePerPagePerEpoch(t *testing.T) {
	cfg := mprotectCfg(64 * 1024)
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := b.Device().Stats().PageFaults
	writeU64(b, 0, 1)
	writeU64(b, 8, 2)    // same page: no fault
	writeU64(b, 5000, 3) // second page: fault
	if got := b.Device().Stats().PageFaults - before; got != 2 {
		t.Fatalf("faults = %d, want 2", got)
	}
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// New epoch: page protection is re-armed.
	writeU64(b, 0, 4)
	if got := b.Device().Stats().PageFaults - before; got != 3 {
		t.Fatalf("faults after new epoch = %d, want 3", got)
	}
}

func TestSoftDirtyNoFaultsButCollateralMarking(t *testing.T) {
	cfg := softdirtyCfg(256 * 1024)
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	writeU64(b, 0, 1) // one 8-byte write
	if got := b.Device().Stats().PageFaults; got != 0 {
		t.Fatalf("soft-dirty charged %d faults", got)
	}
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// One write marked a 4-page group: 16 KB checkpointed.
	if got := b.Metrics().CheckpointBytes; got != 4*PageSize {
		t.Fatalf("checkpoint bytes = %d, want %d (collateral marking)", got, 4*PageSize)
	}
}

func TestMprotectWriteAmplification(t *testing.T) {
	cfg := mprotectCfg(64 * 1024)
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	writeU64(b, 0, 1) // 8 bytes modified
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The whole 4 KB page is checkpointed for an 8-byte change: the paper's
	// problem (P1).
	if got := b.Metrics().CheckpointBytes; got != PageSize {
		t.Fatalf("checkpoint bytes = %d, want %d", got, PageSize)
	}
}

func TestRandomizedCrashSweep(t *testing.T) {
	cfg := mprotectCfg(32 * 1024)
	for _, pol := range crashPolicies {
		// Independent sched cells, one per trial; each trial's rng (workload
		// shape, crash point, and coin flips) is seeded from the trial's
		// identity rather than shared across the loop.
		_, err := sched.MapErr(15, sched.Options{}, func(trial int) (struct{}, error) {
			rng := rand.New(rand.NewSource(sched.SeedFor(fmt.Sprintf("pagecow/%s/%d", pol.name, trial))))
			b, err := New(cfg)
			if err != nil {
				return struct{}{}, err
			}
			shadows := map[uint64][]byte{0: make([]byte, b.Size())}
			epoch := uint64(0)
			steps := rng.Intn(60) + 10
			failAt := int64(rng.Intn(2000) + 1)
			b.Device().FailAfter(failAt)
			func() {
				defer func() {
					if r := recover(); r != nil {
						if _, ok := r.(nvm.InjectedCrash); !ok {
							panic(r)
						}
					}
				}()
				for i := 0; i < steps; i++ {
					if i%9 == 8 {
						snap := make([]byte, b.Size())
						copy(snap, b.Bytes())
						shadows[epoch+1] = snap
						if err := b.Checkpoint(); err != nil {
							panic(err)
						}
						epoch++
						continue
					}
					writeU64(b, rng.Intn(b.Size()/8-1)*8, rng.Uint64())
				}
			}()
			b.Device().FailAfter(-1)
			if pol.policy != nil {
				b.Device().CrashWith(pol.policy)
			} else {
				b.Device().Crash(rng)
			}
			b2, err := Open(cfg, b.Device())
			if err != nil {
				return struct{}{}, err
			}
			e := ckpt.CommitWord(b.Device())
			want, ok := shadows[e]
			if !ok {
				return struct{}{}, fmt.Errorf("%s trial %d: recovered to unseen epoch %d", pol.name, trial, e)
			}
			if !bytes.Equal(b2.Bytes(), want) {
				return struct{}{}, fmt.Errorf("%s trial %d: recovered state differs from epoch %d", pol.name, trial, e)
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
	cfg := mprotectCfg(32 * 1024)
	if _, err := Open(cfg, nvm.NewDevice(1024)); err == nil {
		t.Fatal("Open on tiny device succeeded")
	}
	if _, err := Open(cfg, nvm.NewDevice(4<<20)); err == nil {
		t.Fatal("Open on unformatted device succeeded")
	}
}

// TestOpenBadConfig: Open refuses a heap size New refuses, with New's error,
// rather than sizing its dirty bitmap from a negative page count.
func TestOpenBadConfig(t *testing.T) {
	bad := mprotectCfg(-4 * PageSize)
	_, want := New(bad)
	_, err := Open(bad, nvm.NewDevice(1<<20))
	if want == nil || err == nil || err.Error() != want.Error() {
		t.Fatalf("Open error %v, want New's %v", err, want)
	}
}

func TestOutOfRangeWritePanics(t *testing.T) {
	b, err := New(mprotectCfg(32 * 1024))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	b.OnWrite(b.Size(), 8)
}

func TestNames(t *testing.T) {
	a, _ := New(mprotectCfg(32 * 1024))
	c, _ := New(softdirtyCfg(32 * 1024))
	if a.Name() != "Mprotect" || c.Name() != "Soft-dirty bit" {
		t.Fatalf("names: %q %q", a.Name(), c.Name())
	}
}
