package measure

import (
	"errors"
	"fmt"
)

// ErrBadConfig wraps every rig configuration rejection.
var ErrBadConfig = errors.New("measure: invalid config")

// DefaultIntervalPS is the timeseries bucket width when Config.IntervalPS
// is zero: 1 ms of simulated time.
const DefaultIntervalPS = 1_000_000_000

// Config parameterizes the open-loop measurement rig.
type Config struct {
	// TargetOps is the offered load in operations per simulated second
	// (> 0). The arrival schedule is deterministic: operation i's intended
	// start is i whole inter-arrival periods after the schedule origin.
	TargetOps float64
	// WarmupOps is the count of leading operations (in intended-start
	// order) excluded from the measured histograms; the measured window
	// opens at the intended start of operation WarmupOps.
	WarmupOps int
	// DurationPS, when positive, makes the run time-bounded: the measured
	// window spans DurationPS of simulated time, and the op count follows
	// from the offered load (WarmupOps + ceil(TargetOps * DurationPS)).
	DurationPS int64
	// IntervalPS is the timeseries bucket width on the intended-start
	// axis (default DefaultIntervalPS).
	IntervalPS int64
}

// WithDefaults validates the config and fills defaults.
func (c Config) WithDefaults() (Config, error) {
	if !(c.TargetOps > 0) {
		return c, fmt.Errorf("%w: target throughput %v ops/s (need > 0)", ErrBadConfig, c.TargetOps)
	}
	if c.WarmupOps < 0 {
		return c, fmt.Errorf("%w: negative warmup %d", ErrBadConfig, c.WarmupOps)
	}
	if c.DurationPS < 0 {
		return c, fmt.Errorf("%w: negative duration %d ps", ErrBadConfig, c.DurationPS)
	}
	if c.IntervalPS < 0 {
		return c, fmt.Errorf("%w: negative interval %d ps", ErrBadConfig, c.IntervalPS)
	}
	if c.IntervalPS == 0 {
		c.IntervalPS = DefaultIntervalPS
	}
	if c.periodPS() < 1 {
		return c, fmt.Errorf("%w: target throughput %v ops/s exceeds the clock resolution (1 op/ps)", ErrBadConfig, c.TargetOps)
	}
	return c, nil
}

// periodPS is the intended inter-arrival gap in simulated picoseconds,
// rounded to the nearest representable tick.
func (c Config) periodPS() int64 {
	return int64(1e12/c.TargetOps + 0.5)
}

// Ops derives the total operation count of a time-bounded run: the warmup
// plus every arrival whose intended start falls inside the measured
// window. Zero when DurationPS is unset (op-bounded runs size themselves).
func (c Config) Ops() int {
	if c.DurationPS <= 0 {
		return 0
	}
	period := c.periodPS()
	measured := int((c.DurationPS + period - 1) / period)
	if measured < 1 {
		measured = 1
	}
	return c.WarmupOps + measured
}

// Schedule is a concrete open-loop arrival schedule: the origin timestamp
// plus the inter-arrival period, both in simulated picoseconds. Every
// rank derives the identical schedule from its (barrier-aligned) clock at
// serving start, so intended timestamps agree globally without
// coordination.
type Schedule struct {
	StartPS  int64
	PeriodPS int64
}

// NewSchedule anchors cfg's arrival schedule at startPS.
func NewSchedule(startPS int64, cfg Config) Schedule {
	return Schedule{StartPS: startPS, PeriodPS: cfg.periodPS()}
}

// IntendedPS is operation seq's intended start on the simulated clock.
func (s Schedule) IntendedPS(seq int) int64 {
	return s.StartPS + int64(seq)*s.PeriodPS
}
