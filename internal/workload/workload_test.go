package workload

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"libcrpm/internal/alloc"
	"libcrpm/internal/baselines/nvmnp"
	"libcrpm/internal/heap"
	"libcrpm/internal/pds"
)

func TestZipfianRange(t *testing.T) {
	z := NewZipfian(1000, 0.99)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		if k := z.Next(rng); k >= 1000 {
			t.Fatalf("key %d out of range", k)
		}
	}
}

func TestZipfianIsSkewed(t *testing.T) {
	const n = 10000
	z := NewZipfian(n, 0.99)
	rng := rand.New(rand.NewSource(2))
	counts := map[uint64]int{}
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[z.Next(rng)]++
	}
	// The hottest key must be far above uniform expectation (draws/n = 20).
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 200 {
		t.Fatalf("hottest key drawn %d times; distribution not skewed", max)
	}
	// And the tail must still be covered broadly.
	if len(counts) < n/10 {
		t.Fatalf("only %d distinct keys drawn", len(counts))
	}
}

func TestZipfianDeterministic(t *testing.T) {
	z1, z2 := NewZipfian(500, 0.99), NewZipfian(500, 0.99)
	r1, r2 := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		if z1.Next(r1) != z2.Next(r2) {
			t.Fatal("same seed diverged")
		}
	}
}

// TestZipfianSharesZeta: generators over one key space share one summation
// — also when they are built at the same moment, as a run's client streams
// are — and the shared sum is bit for bit the one each would have computed,
// so no draw moves.
func TestZipfianSharesZeta(t *testing.T) {
	const n, theta = 77_777, 0.99 // a key space no other test sums
	// Forget it first: -count > 1 reruns the test in one process.
	delete(zetaMemo.sums, [2]uint64{n, math.Float64bits(theta)})
	before := len(zetaMemo.sums)
	gens := make([]*Zipfian, 8)
	var wg sync.WaitGroup
	for i := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gens[i] = NewZipfian(n, theta)
		}()
	}
	wg.Wait()
	// Two entries: H(n, theta) and the H(2, theta) every generator also needs
	// (already there if an earlier test built a generator with this theta).
	if grew := len(zetaMemo.sums) - before; grew < 1 || grew > 2 {
		t.Fatalf("eight generators over one key space added %d sums, want one per distinct (n, theta)", grew)
	}
	want := zetaSum(n, theta)
	for i, z := range gens {
		if z.zetan != want {
			t.Fatalf("generator %d: zetan %v, a private summation gives %v", i, z.zetan, want)
		}
	}
}

func newKV(t *testing.T) (pds.KV, *nvmnp.Backend) {
	t.Helper()
	b := nvmnp.New(8 << 20)
	a, err := alloc.Format(heap.New(b))
	if err != nil {
		t.Fatal(err)
	}
	m, err := pds.NewHashMap(a, 4096)
	if err != nil {
		t.Fatal(err)
	}
	return m, b
}

func TestDriverPopulateAndRun(t *testing.T) {
	kv, b := newKV(t)
	ckpts := 0
	d := &Driver{
		KV:    kv,
		Clock: b.Device().Clock(),
		Checkpoint: func() error {
			ckpts++
			return b.Checkpoint()
		},
		Interval: 100 * time.Microsecond,
		Rng:      rand.New(rand.NewSource(3)),
		Zipf:     NewZipfian(1000, 0.99),
	}
	if err := d.Populate(1000); err != nil {
		t.Fatal(err)
	}
	if kv.Len() != 1000 {
		t.Fatalf("populated %d keys", kv.Len())
	}
	res, err := d.Run(Balanced, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 5000 || res.Epochs < 1 || res.Throughput <= 0 {
		t.Fatalf("bad result: %+v", res)
	}
	if ckpts != res.Epochs+1 { // +1 for the populate checkpoint
		t.Fatalf("checkpoints %d, epochs %d", ckpts, res.Epochs)
	}
}

func TestDriverInsertOnlyGrowsKeys(t *testing.T) {
	kv, b := newKV(t)
	d := &Driver{
		KV:         kv,
		Clock:      b.Device().Clock(),
		Checkpoint: b.Checkpoint,
		Interval:   time.Millisecond,
		Rng:        rand.New(rand.NewSource(4)),
	}
	if err := d.Populate(100); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(InsertOnly, 500); err != nil {
		t.Fatal(err)
	}
	if kv.Len() != 600 {
		t.Fatalf("Len = %d, want 600", kv.Len())
	}
	if d.Keys != 600 {
		t.Fatalf("Keys = %d, want 600", d.Keys)
	}
}

func TestDriverReadOnlyDoesNotMutate(t *testing.T) {
	kv, b := newKV(t)
	d := &Driver{
		KV:         kv,
		Clock:      b.Device().Clock(),
		Checkpoint: b.Checkpoint,
		Interval:   time.Millisecond,
		Rng:        rand.New(rand.NewSource(5)),
	}
	if err := d.Populate(200); err != nil {
		t.Fatal(err)
	}
	before := kv.Len()
	if _, err := d.Run(ReadOnly, 1000); err != nil {
		t.Fatal(err)
	}
	if kv.Len() != before {
		t.Fatalf("read-only run changed Len: %d -> %d", before, kv.Len())
	}
}

func TestDriverRequiresRng(t *testing.T) {
	kv, b := newKV(t)
	d := &Driver{KV: kv, Clock: b.Device().Clock(), Checkpoint: b.Checkpoint, Interval: time.Millisecond}
	if _, err := d.Run(Balanced, 10); err == nil {
		t.Fatal("driver ran without an Rng")
	}
}

func TestMixesOrder(t *testing.T) {
	m := Mixes()
	if len(m) != 4 || m[0].Name != "Insert-only" || m[3].Name != "Read-only" {
		t.Fatalf("Mixes = %v", m)
	}
}

func TestDriverPauseAccounting(t *testing.T) {
	kv, b := newKV(t)
	clock := b.Device().Clock()
	d := &Driver{
		KV:    kv,
		Clock: clock,
		// NVM-NP checkpoints are free; model a fixed 50 µs pause so the
		// accounting is observable.
		Checkpoint: func() error {
			clock.Advance(50_000_000) // 50 µs in ps
			return b.Checkpoint()
		},
		Interval: 200 * time.Microsecond,
		Rng:      rand.New(rand.NewSource(8)),
		Zipf:     NewZipfian(500, 0.99),
	}
	if err := d.Populate(500); err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(Balanced, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs == 0 {
		t.Fatal("no epochs")
	}
	if res.MeanPause < 50*time.Microsecond || res.MaxPause < res.MeanPause {
		t.Fatalf("pause stats implausible: mean=%v max=%v", res.MeanPause, res.MaxPause)
	}
	if res.PauseShare <= 0 || res.PauseShare >= 1 {
		t.Fatalf("pause share = %v", res.PauseShare)
	}
}
