package obs

import (
	"math/rand"
	"sort"
	"testing"
)

// count returns bucket i's count: zero outside the window.
func (h *Histogram) count(i int) int64 {
	if i < h.lo || i >= h.lo+len(h.counts) {
		return 0
	}
	return h.counts[i-h.lo]
}

// fullHist is the reference histogram: one count per bucket over the
// whole bound table, quantiles read as Histogram documents them.
type fullHist struct {
	bounds         []int64
	counts         []int64
	n, sum, maxVal int64
}

func (f *fullHist) observe(v int64) {
	f.counts[sort.Search(len(f.bounds), func(i int) bool { return v <= f.bounds[i] })]++
	f.n++
	f.sum += v
	f.maxVal = max(f.maxVal, v)
}

func (f *fullHist) quantile(q float64) int64 {
	if f.n == 0 {
		return 0
	}
	rank := max(int64(q*float64(f.n)), 1)
	if rank >= f.n {
		return f.maxVal
	}
	var cum int64
	for i, c := range f.counts {
		if cum += c; cum >= rank {
			if i == len(f.bounds) {
				return f.maxVal
			}
			return f.bounds[i]
		}
	}
	return f.maxVal
}

// TestHistogramWindowMatchesFullArray merges histograms of random
// multisets — over bucket 0, the overflow bucket, and windows that lie
// apart, overlap or nest — in random order and grouping, and pins every
// bucket, quantile, N, Sum, Max and Mean against one full-array reference
// of the union.
func TestHistogramWindowMatchesFullArray(t *testing.T) {
	bounds := ExpBounds(1, 2, 40)
	qs := []float64{0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1}
	rng := rand.New(rand.NewSource(1))
	// sample draws a value whose bucket lies in [a, b], b = len(bounds)
	// being the overflow bucket.
	sample := func(a, b int) int64 {
		i := a + rng.Intn(b-a+1)
		switch {
		case i == 0:
			return rng.Int63n(bounds[0] + 1)
		case i == len(bounds):
			return bounds[i-1] + 1 + rng.Int63n(1<<20)
		}
		return bounds[i-1] + 1 + rng.Int63n(bounds[i]-bounds[i-1])
	}
	for trial := 0; trial < 300; trial++ {
		ref := &fullHist{bounds: bounds, counts: make([]int64, len(bounds)+1)}
		parts := make([]*Histogram, 1+rng.Intn(5))
		for p := range parts {
			parts[p] = NewHistogram(bounds)
			a := rng.Intn(len(bounds) + 1)
			b := min(a+rng.Intn(8), len(bounds))
			if rng.Intn(4) == 0 { // the whole table
				a, b = 0, len(bounds)
			}
			for k := rng.Intn(50); k > 0; k-- {
				v := sample(a, b)
				parts[p].Observe(v)
				ref.observe(v)
			}
		}
		// Fold the parts in random order, now and then into a part that
		// already holds samples.
		rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
		h := NewHistogram(bounds)
		if rng.Intn(2) == 0 {
			h, parts = parts[0], parts[1:]
		}
		for _, p := range parts {
			if err := h.Merge(p); err != nil {
				t.Fatal(err)
			}
		}
		for i := range ref.counts {
			if h.count(i) != ref.counts[i] {
				t.Fatalf("trial %d: bucket %d holds %d, want %d", trial, i, h.count(i), ref.counts[i])
			}
		}
		for _, q := range qs {
			if got, want := h.Quantile(q), ref.quantile(q); got != want {
				t.Fatalf("trial %d: quantile %v = %d, want %d", trial, q, got, want)
			}
		}
		if h.N() != ref.n || h.Sum() != ref.sum || h.Max() != ref.maxVal {
			t.Fatalf("trial %d: N %d Sum %d Max %d, want %d %d %d", trial, h.N(), h.Sum(), h.Max(), ref.n, ref.sum, ref.maxVal)
		}
		if want := ref.sum / max(ref.n, 1); h.Mean() != want {
			t.Fatalf("trial %d: Mean %d, want %d", trial, h.Mean(), want)
		}
	}
}

// TestHistogramWindowGrowsByDoubling pins the window's growth: samples
// arriving from the top bucket down to bucket 0 reallocate it a
// logarithmic number of times, not once a bucket.
func TestHistogramWindowGrowsByDoubling(t *testing.T) {
	bounds := make([]int64, 1000)
	for i := range bounds {
		bounds[i] = int64(i + 1)
	}
	allocs := testing.AllocsPerRun(1, func() {
		h := NewHistogram(bounds)
		for v := int64(len(bounds) + 1); v >= 0; v-- {
			h.Observe(v)
		}
	})
	if allocs > 12 { // the histogram, then at most 11 windows up to 1001 buckets
		t.Fatalf("%v allocations observing every bucket top down", allocs)
	}
}
