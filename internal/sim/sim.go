// Package sim provides the simulated-time base shared by every component of
// the RADram simulator: a picosecond-resolution time type, duration helpers,
// and fixed-frequency clock domains. There is no central event queue: each
// component advances its own clock.
//
// All timing in the simulator is expressed in Time (picoseconds). Using
// picoseconds keeps every clock domain exact: a 1 GHz processor cycle is
// 1000 ps, the 10 ns memory-bus beat is 10000 ps, and a 100 MHz logic cycle
// is 10000 ps, so no clock-domain crossing ever rounds.
package sim

import "fmt"

// Time is a point in simulated time, in picoseconds since simulation start.
type Time uint64

// Duration is a span of simulated time, in picoseconds.
type Duration = Time

// Common durations.
const (
	Picosecond  Duration = 1
	Nanosecond  Duration = 1000 * Picosecond
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Nanoseconds reports t as a floating-point count of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds reports t as a floating-point count of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Milliseconds reports t as a floating-point count of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Seconds reports t as a floating-point count of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders the time with an auto-selected unit, e.g. "1.25ms".
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.4gs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.4gms", t.Milliseconds())
	case t >= Microsecond:
		return fmt.Sprintf("%.4gus", t.Microseconds())
	case t >= Nanosecond:
		return fmt.Sprintf("%.4gns", t.Nanoseconds())
	default:
		return fmt.Sprintf("%dps", uint64(t))
	}
}

// Clock converts between cycles of a fixed-frequency clock domain and Time.
type Clock struct {
	period Duration // picoseconds per cycle
}

// NewClock returns a clock with the given frequency in hertz.
// It panics if the frequency does not divide one second exactly,
// which holds for every frequency used by the simulator (MHz and GHz rates).
func NewClock(hz uint64) Clock {
	if hz == 0 {
		panic("sim: zero-frequency clock")
	}
	if uint64(Second)%hz != 0 {
		panic(fmt.Sprintf("sim: %d Hz does not divide a second exactly", hz))
	}
	return Clock{period: Duration(uint64(Second) / hz)}
}

// NewClockPeriod returns a clock with an explicit period.
func NewClockPeriod(period Duration) Clock {
	if period == 0 {
		panic("sim: zero-period clock")
	}
	return Clock{period: period}
}

// Period returns the duration of one cycle.
func (c Clock) Period() Duration { return c.period }

// Hz returns the clock frequency in hertz.
func (c Clock) Hz() uint64 { return uint64(Second) / uint64(c.period) }

// Cycles converts a cycle count into a duration.
func (c Clock) Cycles(n uint64) Duration { return Duration(n) * c.period }

// CyclesIn reports how many full cycles fit in d.
func (c Clock) CyclesIn(d Duration) uint64 { return uint64(d) / uint64(c.period) }
