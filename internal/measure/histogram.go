// Package measure is the deterministic open-loop measurement layer of the
// simulator: YCSB-grade latency accounting on the simulated clock.
//
// Three pieces compose the rig:
//
//   - Bounds for obs.Histogram, the simulator's one fixed-bound bucketed
//     histogram, whose quantiles are a pure function of the observation
//     multiset: LogBounds builds HDR-style log-linear bounds with a bounded
//     relative error, and LatencyBounds is the rig's table of them. Callers
//     with other bucket layouts (the server's request-latency track,
//     obs.PauseBounds) pass their own bounds.
//
//   - Schedule: an open-loop arrival schedule. A target-throughput run
//     assigns every operation an intended start timestamp on the simulated
//     clock before the run begins; latency is measured from intended start,
//     not from dispatch, so an operation that queues behind a checkpoint
//     pause is charged the wait. Closed-loop service-time measurement
//     silently forgives exactly this wait — the classic coordinated
//     omission — which is why every pause-centric claim in this repo is
//     validated against the open-loop numbers.
//
//   - Collector/Report: per-shard accumulation with a warmup window,
//     per-op-kind tracks (read/update/insert/scan/rmw/delete), and a
//     per-interval timeseries; shard collectors merge in shard order into
//     one deterministic Report.
package measure

import "fmt"

// LogBounds builds HDR-style log-linear bucket upper bounds: every
// power-of-two octave starting at first is split into sub linear
// sub-buckets, and octaves double until the bounds cover max. The
// resulting relative quantile error is bounded by 1/sub (one sub-bucket
// width) for every value above first. first and sub must be positive;
// first should itself be the resolution floor (values at or below it land
// in the first bucket).
func LogBounds(first int64, sub int, max int64) []int64 {
	if first < 1 || sub < 1 || max <= first {
		panic(fmt.Sprintf("measure: bad LogBounds(%d, %d, %d)", first, sub, max))
	}
	out := []int64{first}
	for base := first; base < max; base *= 2 {
		step := base / int64(sub)
		if step < 1 {
			step = 1
		}
		for b := base + step; b <= 2*base; b += step {
			out = append(out, b)
		}
		if out[len(out)-1] != 2*base {
			out = append(out, 2*base)
		}
	}
	return out
}

// LatencyBounds is the rig's canonical latency bucket table: 1 ns to
// ~4.4 s of simulated time in 32 sub-buckets per octave (~3% relative
// error), in picoseconds.
var LatencyBounds = LogBounds(1_000, 32, 4_400_000_000_000)
