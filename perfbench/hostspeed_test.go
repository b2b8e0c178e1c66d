package main

import (
	"math"
	"os"
	"testing"
	"time"
)

// meterAt builds a host-speed record whose i-th slice starts i*slicePeriod
// after t0 and took cpus[i] ms.
func meterAt(t0 time.Time, cpus ...float64) *hostSpeed {
	h := &hostSpeed{power: 1}
	for i, c := range cpus {
		h.slices = append(h.slices, meterSlice{t0.Add(time.Duration(i) * slicePeriod), time.Duration(c * float64(time.Millisecond))})
	}
	return h
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestScaleBetweenUsesTheSpansSlices(t *testing.T) {
	t0 := time.Unix(1000, 0)
	// 16 slices at the reference speed, then 16 at half speed.
	var cpus []float64
	for i := 0; i < 32; i++ {
		c := 5.0
		if i >= 16 {
			c = 10
		}
		cpus = append(cpus, c)
	}
	h := meterAt(t0, cpus...)
	if got := h.scaleBetween(t0, t0.Add(15*slicePeriod)); !near(got, 1) {
		t.Errorf("fast half: scale %g, want 1", got)
	}
	if got := h.scaleBetween(t0.Add(16*slicePeriod), t0.Add(31*slicePeriod)); !near(got, 0.5) {
		t.Errorf("slow half: scale %g, want 0.5", got)
	}
	if got := h.scale(); !near(got, 5.0/7.5) {
		t.Errorf("whole run: scale %g, want %g", got, 5.0/7.5)
	}
	h.power = 2
	if got := h.scaleBetween(t0.Add(16*slicePeriod), t0.Add(31*slicePeriod)); !near(got, 0.25) {
		t.Errorf("slow half at power 2: scale %g, want 0.25", got)
	}
	h.power = 1
	// A span holding one slice is widened to minWindowSlices around it.
	mid := t0.Add(16 * slicePeriod)
	got := h.scaleBetween(mid, mid)
	n := 0
	for _, s := range h.slices {
		if d := s.at.Sub(mid); d >= -4*slicePeriod && d <= 4*slicePeriod {
			n++
		}
	}
	if n < minWindowSlices || got <= 0.5 || got >= 1 {
		t.Errorf("widened span: scale %g over %d slices; want a mix of both speeds over >= %d", got, n, minWindowSlices)
	}
	// A span before every slice widens until it reaches them.
	if got := h.scaleBetween(t0.Add(-time.Second), t0.Add(-time.Second)); !near(got, 1) {
		t.Errorf("span before the meter: scale %g, want 1", got)
	}
	// With no slices there is no scale.
	if got := (&hostSpeed{power: 1}).scaleBetween(t0, t0); got != 0 {
		t.Errorf("no slices: scale %g, want 0", got)
	}
}

func TestTableLatenciesAccumulateAndScale(t *testing.T) {
	t0 := time.Unix(1000, 0)
	var cpus []float64
	for i := 0; i < 40; i++ {
		cpus = append(cpus, 10) // half the reference speed throughout
	}
	h := meterAt(t0, cpus...)
	secs := []section{
		{name: "a", start: t0, wall: 100 * time.Millisecond, cpu: 100 * time.Millisecond},
		{name: "b", start: t0.Add(100 * time.Millisecond), wall: 0, cpu: 0},
		{name: "c", start: t0.Add(100 * time.Millisecond), wall: 300 * time.Millisecond, cpu: 300 * time.Millisecond},
	}
	got := tableLatencies(secs, h)
	want := []float64{50, 50, 200}
	for i := range want {
		if !near(got[i], want[i]) {
			t.Fatalf("tableLatencies = %v, want %v", got, want)
		}
	}
}

func TestMeterSlicesTakeCPU(t *testing.T) {
	h := hostSpeed{power: 1}
	h.meterFor(3 * slicePeriod)
	if len(h.slices) == 0 {
		t.Fatal("no slices metered")
	}
	for _, s := range h.slices {
		if s.cpu <= 0 {
			t.Fatalf("slice took %v of CPU", s.cpu)
		}
	}
	if h.scale() <= 0 {
		t.Errorf("scale %g", h.scale())
	}
}

func TestProcCPUReadsThisProcess(t *testing.T) {
	start := time.Now()
	x := uint64(1)
	for time.Since(start) < 50*time.Millisecond {
		x = x*6364136223846793005 + 1
	}
	meterSink += x
	user, _, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if user <= 0 {
		t.Errorf("user CPU %v after 50 ms of work", user)
	}
	if _, _, err := procCPU(-1); err == nil {
		t.Error("no error for a missing process")
	}
}
