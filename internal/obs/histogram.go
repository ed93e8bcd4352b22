package obs

import (
	"fmt"
	"sort"
)

// Histogram is the simulator's one bucketed histogram: fixed bounds with
// exact count, sum and max beside the buckets. bounds are ascending inclusive
// upper bounds; one implicit +Inf bucket catches the overflow. Quantiles
// resolve to the upper bound of the bucket holding the ranked observation
// (the exact max for the overflow bucket), so every reported number is a pure
// function of the observation multiset — independent of observation order,
// worker count, and scheduling. The zero value is not usable; construct with
// NewHistogram, or take a recorder's with Recorder.Histogram.
type Histogram struct {
	// Name is the metric name a recorder keeps the histogram under; empty
	// for a free-standing one.
	Name   string
	bounds []int64
	counts []int64
	n      int64
	sum    int64
	max    int64
}

// NewHistogram builds a histogram over the given ascending bucket bounds.
// The bounds slice is shared, not copied: callers pass package-level bound
// tables (measure.LogBounds results, PauseBounds) and must not mutate them.
func NewHistogram(bounds []int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: bounds not ascending at %d: %d after %d", i, bounds[i], bounds[i-1]))
		}
	}
	return &Histogram{
		bounds: bounds,
		counts: make([]int64, len(bounds)+1),
	}
}

// Observe adds one sample.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// N is the observation count.
func (h *Histogram) N() int64 { return h.n }

// Sum is the exact sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum }

// Max is the exact maximum observation (zero when empty; samples are
// durations, sizes and counts, never negative).
func (h *Histogram) Max() int64 { return h.max }

// Mean is the exact arithmetic mean (zero when empty).
func (h *Histogram) Mean() int64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / h.n
}

// Quantile returns the upper bound of the bucket containing the q-th
// quantile observation (the exact max for the overflow bucket and for
// q = 1). Zero observations yield zero. The rank convention is rank =
// floor(q*n), clamped to [1, n].
func (h *Histogram) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q * float64(h.n))
	if rank < 1 {
		rank = 1
	}
	if rank >= h.n {
		return h.max
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i == len(h.bounds) {
				return h.max
			}
			return h.bounds[i]
		}
	}
	return h.max
}

// Merge folds other into h. Both histograms must share the same bound
// table; merging is commutative and associative, so a sweep reducing
// per-shard histograms in shard order is a pure function of the union of
// observations.
func (h *Histogram) Merge(other *Histogram) error {
	if other == nil || other.n == 0 {
		return nil
	}
	if len(h.bounds) != len(other.bounds) {
		return fmt.Errorf("obs: merging histograms with %d vs %d bounds", len(h.bounds), len(other.bounds))
	}
	for i := range h.bounds {
		if h.bounds[i] != other.bounds[i] {
			return fmt.Errorf("obs: merging histograms with different bounds at %d: %d vs %d", i, h.bounds[i], other.bounds[i])
		}
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.n += other.n
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
	return nil
}
