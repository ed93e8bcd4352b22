package nvm

import (
	"fmt"
	"time"
)

// Clock is a deterministic simulated-time source. All device primitives and
// cost charges advance it; harnesses read it to drive epoch boundaries and to
// report per-category breakdowns. Clock is not safe for concurrent use; in
// multi-threaded protocol tests each simulated thread serializes through the
// container lock before touching the clock.
type Clock struct {
	ps     int64
	cat    Category
	perCat [NumCategories]int64
}

// NewClock returns a clock at time zero in the execution category.
func NewClock() *Clock {
	return &Clock{cat: CatExecution}
}

// Advance adds ps picoseconds to the current category.
func (c *Clock) Advance(ps int64) {
	c.ps += ps
	c.perCat[c.cat] += ps
}

// SetCategory switches the accounting category and returns the previous one,
// so callers can restore it with a deferred SetCategory.
func (c *Clock) SetCategory(cat Category) Category {
	prev := c.cat
	c.cat = cat
	return prev
}

// Category returns the current accounting category.
func (c *Clock) Category() Category { return c.cat }

// NowPS returns the simulated time in picoseconds.
func (c *Clock) NowPS() int64 { return c.ps }

// Now returns the simulated time as a duration.
func (c *Clock) Now() time.Duration { return time.Duration(c.ps / 1000) }

// CategoryPS returns the accumulated picoseconds for one category.
func (c *Clock) CategoryPS(cat Category) int64 { return c.perCat[cat] }

// Reset zeroes the clock and all category accumulators.
func (c *Clock) Reset() {
	c.ps = 0
	c.cat = CatExecution
	for i := range c.perCat {
		c.perCat[i] = 0
	}
}

// String formats the clock state for debugging.
func (c *Clock) String() string {
	return fmt.Sprintf("clock{now=%v exec=%v trace=%v ckpt=%v rec=%v}",
		c.Now(),
		time.Duration(c.perCat[CatExecution]/1000),
		time.Duration(c.perCat[CatTrace]/1000),
		time.Duration(c.perCat[CatCheckpoint]/1000),
		time.Duration(c.perCat[CatRecovery]/1000))
}
