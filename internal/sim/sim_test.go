package sim

import "testing"

func TestDurationUnits(t *testing.T) {
	if Nanosecond != 1000*Picosecond {
		t.Fatalf("Nanosecond = %d ps", Nanosecond)
	}
	if Second != 1000*Millisecond || Millisecond != 1000*Microsecond {
		t.Fatal("unit ladder broken")
	}
}

func TestTimeConversions(t *testing.T) {
	tt := 1500 * Microsecond
	if got := tt.Milliseconds(); got != 1.5 {
		t.Errorf("Milliseconds = %v, want 1.5", got)
	}
	if got := tt.Microseconds(); got != 1500 {
		t.Errorf("Microseconds = %v, want 1500", got)
	}
	if got := tt.Seconds(); got != 0.0015 {
		t.Errorf("Seconds = %v, want 0.0015", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ps"},
		{2 * Nanosecond, "2ns"},
		{1250 * Nanosecond, "1.25us"},
		{3 * Millisecond, "3ms"},
		{2 * Second, "2s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d ps String = %q, want %q", uint64(c.in), got, c.want)
		}
	}
}

func TestClockGHz(t *testing.T) {
	c := NewClock(1_000_000_000) // 1 GHz
	if c.Period() != Nanosecond {
		t.Fatalf("1 GHz period = %v, want 1ns", c.Period())
	}
	if c.Cycles(50) != 50*Nanosecond {
		t.Errorf("50 cycles = %v", c.Cycles(50))
	}
	if c.CyclesIn(1*Microsecond) != 1000 {
		t.Errorf("cycles in 1us = %d", c.CyclesIn(1*Microsecond))
	}
	if c.Hz() != 1_000_000_000 {
		t.Errorf("Hz = %d", c.Hz())
	}
}

func TestClockMHz(t *testing.T) {
	c := NewClock(100_000_000) // 100 MHz logic clock
	if c.Period() != 10*Nanosecond {
		t.Fatalf("100 MHz period = %v, want 10ns", c.Period())
	}
}

func TestClockPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0 Hz clock")
		}
	}()
	NewClock(0)
}

func TestClockPeriodConstructor(t *testing.T) {
	c := NewClockPeriod(2 * Nanosecond)
	if c.Hz() != 500_000_000 {
		t.Errorf("Hz = %d, want 500 MHz", c.Hz())
	}
}
