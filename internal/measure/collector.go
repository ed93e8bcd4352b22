package measure

import (
	"fmt"

	"libcrpm/internal/workload"
)

// numKinds covers every workload.OpKind track (read..delete).
const numKinds = int(workload.OpDelete) + 1

// opHist is one latency surface: an all-ops histogram plus one track per
// op kind, lazily created so unexercised kinds cost nothing. Every histogram
// of the rig is bucketed by LatencyBounds.
type opHist struct {
	all  *Histogram
	kind [numKinds]*Histogram
}

func newOpHist() opHist {
	return opHist{all: NewHistogram(LatencyBounds)}
}

func (o *opHist) observe(k workload.OpKind, v int64) {
	o.all.Observe(v)
	if int(k) >= numKinds {
		return
	}
	if o.kind[k] == nil {
		o.kind[k] = NewHistogram(LatencyBounds)
	}
	o.kind[k].Observe(v)
}

func (o *opHist) merge(other *opHist) error {
	if err := o.all.Merge(other.all); err != nil {
		return err
	}
	for k, h := range other.kind {
		if h == nil {
			continue
		}
		if o.kind[k] == nil {
			o.kind[k] = NewHistogram(LatencyBounds)
		}
		if err := o.kind[k].Merge(h); err != nil {
			return err
		}
	}
	return nil
}

// intervalAcc accumulates one timeseries bucket on the intended-start
// axis.
type intervalAcc struct {
	ops  int64
	open *Histogram
}

// Collector accumulates one shard's measured operations. A Collector
// belongs to one rank goroutine (like the device it observes) and is not
// safe for concurrent use; shard collectors Merge in shard order after
// the run, so the merged Report is a pure function of the configuration.
// A nil *Collector is a valid "rig disabled" collector: Observe is a
// no-op.
type Collector struct {
	cfg   Config
	sched Schedule
	// measureStartPS is the intended start of the first measured op.
	measureStartPS int64
	open           opHist // latency from intended start (omission-free)
	svc            opHist // latency from dispatch (service time)
	intervals      []*intervalAcc
	warmup         int64
	measured       int64
	endPS          int64
}

// NewCollector builds a collector for one shard. cfg must already have
// defaults filled (Config.WithDefaults); sched is the rank's arrival
// schedule.
func NewCollector(cfg Config, sched Schedule) *Collector {
	return &Collector{
		cfg:            cfg,
		sched:          sched,
		measureStartPS: sched.IntendedPS(cfg.WarmupOps),
		open:           newOpHist(),
		svc:            newOpHist(),
	}
}

// Observe records one acked operation: its global sequence number, its
// intended start (arrival), the timestamp its service actually began
// (dispatch — later than intended exactly when the op queued), and its
// completion. Warmup ops are counted but excluded from every histogram
// and interval.
func (c *Collector) Observe(kind workload.OpKind, seq int, intendedPS, startPS, donePS int64) {
	if c == nil {
		return
	}
	if seq < c.cfg.WarmupOps {
		c.warmup++
		return
	}
	c.measured++
	if donePS > c.endPS {
		c.endPS = donePS
	}
	openLat := donePS - intendedPS
	c.open.observe(kind, openLat)
	c.svc.observe(kind, donePS-startPS)
	idx := int((intendedPS - c.measureStartPS) / c.cfg.IntervalPS)
	for len(c.intervals) <= idx {
		c.intervals = append(c.intervals, nil)
	}
	if c.intervals[idx] == nil {
		c.intervals[idx] = &intervalAcc{open: NewHistogram(LatencyBounds)}
	}
	c.intervals[idx].ops++
	c.intervals[idx].open.Observe(openLat)
}

// Merge folds another shard's collector into c. Collectors must share the
// same schedule and config; merging is order-insensitive over the
// observation multiset, so reducing shards in shard order yields the same
// Report as any other order — the byte-identity anchor for parallel
// sweeps.
func (c *Collector) Merge(other *Collector) error {
	if other == nil {
		return nil
	}
	if c.sched != other.sched {
		return fmt.Errorf("measure: merging collectors with different schedules (%+v vs %+v)", c.sched, other.sched)
	}
	if err := c.open.merge(&other.open); err != nil {
		return err
	}
	if err := c.svc.merge(&other.svc); err != nil {
		return err
	}
	for i, iv := range other.intervals {
		if iv == nil {
			continue
		}
		for len(c.intervals) <= i {
			c.intervals = append(c.intervals, nil)
		}
		if c.intervals[i] == nil {
			c.intervals[i] = &intervalAcc{open: NewHistogram(LatencyBounds)}
		}
		c.intervals[i].ops += iv.ops
		if err := c.intervals[i].open.Merge(iv.open); err != nil {
			return err
		}
	}
	c.warmup += other.warmup
	c.measured += other.measured
	if other.endPS > c.endPS {
		c.endPS = other.endPS
	}
	return nil
}

// KindStat is one latency track's quantile summary, picoseconds.
type KindStat struct {
	Kind                                       string
	N                                          int64
	P50PS, P95PS, P99PS, P999PS, MaxPS, MeanPS int64
}

func kindStat(name string, h *Histogram) KindStat {
	return KindStat{
		Kind:   name,
		N:      h.N(),
		P50PS:  h.Quantile(0.50),
		P95PS:  h.Quantile(0.95),
		P99PS:  h.Quantile(0.99),
		P999PS: h.Quantile(0.999),
		MaxPS:  h.Max(),
		MeanPS: h.Mean(),
	}
}

func (o *opHist) stats() []KindStat {
	var out []KindStat
	for k := 0; k < numKinds; k++ {
		if o.kind[k] == nil || o.kind[k].N() == 0 {
			continue
		}
		out = append(out, kindStat(workload.OpKind(k).String(), o.kind[k]))
	}
	return out
}

// Interval is one timeseries bucket: all measured ops whose intended
// start fell inside [StartPS, StartPS+IntervalPS).
type Interval struct {
	Index     int
	StartPS   int64
	Ops       int64
	OpenP99PS int64
	OpenMaxPS int64
}

// Report is the merged, deterministic outcome of a measured run.
type Report struct {
	// TargetOps and PeriodPS echo the offered load; WarmupOps counts the
	// excluded leading operations across all shards.
	TargetOps float64
	PeriodPS  int64
	WarmupOps int64
	// MeasuredOps is the histogram population; the measured window spans
	// [StartPS, EndPS] on the simulated clock (intended start of the first
	// measured arrival to the last measured completion).
	MeasuredOps    int64
	StartPS, EndPS int64
	// AchievedOps is the delivered throughput over the measured window,
	// ops per simulated second. Under saturation it flattens below
	// TargetOps — the x-axis of the throughput-vs-p99 curve.
	AchievedOps float64
	// Open tracks latency from intended start (coordinated-omission-free);
	// Service from dispatch. Per-kind entries cover only exercised kinds,
	// in op-kind order.
	Open       []KindStat
	Service    []KindStat
	OpenAll    KindStat
	ServiceAll KindStat
	// IntervalPS is the timeseries bucket width; Intervals lists only
	// non-empty buckets, ascending.
	IntervalPS int64
	Intervals  []Interval
}

// Report summarizes the collector. Call once, after every shard merged.
func (c *Collector) Report(target float64) *Report {
	r := &Report{
		TargetOps:   target,
		PeriodPS:    c.sched.PeriodPS,
		WarmupOps:   c.warmup,
		MeasuredOps: c.measured,
		StartPS:     c.measureStartPS,
		EndPS:       c.endPS,
		Open:        c.open.stats(),
		Service:     c.svc.stats(),
		OpenAll:     kindStat("all", c.open.all),
		ServiceAll:  kindStat("all", c.svc.all),
		IntervalPS:  c.cfg.IntervalPS,
	}
	if c.measured > 0 && c.endPS > c.measureStartPS {
		r.AchievedOps = float64(c.measured) * 1e12 / float64(c.endPS-c.measureStartPS)
	}
	for i, iv := range c.intervals {
		if iv == nil {
			continue
		}
		r.Intervals = append(r.Intervals, Interval{
			Index:     i,
			StartPS:   c.measureStartPS + int64(i)*c.cfg.IntervalPS,
			Ops:       iv.ops,
			OpenP99PS: iv.open.Quantile(0.99),
			OpenMaxPS: iv.open.Max(),
		})
	}
	return r
}
