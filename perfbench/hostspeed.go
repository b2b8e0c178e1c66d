package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host these runs share changes speed by 20-30% over tens of seconds:
// the same sweep's user CPU time moved by up to 35% between consecutive
// runs. The program's CPU times are therefore reported at a reference
// host speed. While a run measures, a meter does a fixed piece of work
// that belongs to the benchmark and never changes, in short slices on its
// own thread (about a fifth of one core), and times each slice in thread
// CPU time. A CPU time the program spent between two instants is scaled
// by (refSlice / mean slice over the same instants)^power, where power is
// 1, or sweepPower for a sweep's CPU time. Because the slices run in the
// same seconds as the program's work, they see the same slowdowns. The
// report prints the raw times and the run's mean scale beside the scaled
// ones.

// refSlice is one meter slice's CPU time on the reference host, a 2-vCPU
// Intel Xeon VM: a scaled time is what the program would have taken there.
const refSlice = 5 * time.Millisecond

// slicePeriod is how often the meter starts a slice.
const slicePeriod = 25 * time.Millisecond

// minWindowSlices is the fewest slices a scale is taken over: a shorter
// span is widened on both sides until it holds this many.
const minWindowSlices = 8

// sweepPower is the power of the slowdown that scales a sweep's CPU
// time: a sweep slows more than the meter when the host slows. Over
// thirty sweep-quick runs at host speeds up to 50% apart, the unscaled
// CPU time spread by 0.22 of the median (quartile distance), and the
// scaled one by 0.077 at power 1, 0.048 at 1.25 and 0.060 at 1.5.
const sweepPower = 1.25

// hostSpeed meters the host's speed over the spans a run chooses.
type hostSpeed struct {
	power  float64 // a scale is (refSlice / mean slice)^power
	slices []meterSlice
	stop   chan struct{}
	done   chan struct{}
}

// meterSlice is one slice of the meter's work: when it started and the
// thread CPU time it took.
type meterSlice struct {
	at  time.Time
	cpu time.Duration
}

// start begins metering on a goroutine locked to its own OS thread.
func (h *hostSpeed) start() {
	h.stop, h.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(h.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		table := make([]uint32, 1<<18) // 1 MiB: fits in L2
		m := make(map[uint64]uint64, 1<<14)
		x := uint64(88172645463325252)
		tick := time.NewTicker(slicePeriod)
		defer tick.Stop()
		for {
			at, c := time.Now(), threadCPU()
			x = mapOps(m, tableWalk(table, x, 300_000), 60_000)
			h.slices = append(h.slices, meterSlice{at, threadCPU() - c})
			select {
			case <-h.stop:
				meterSink += x
				return
			case <-tick.C:
			}
		}
	}()
}

// end stops metering and waits for the meter's last slice.
func (h *hostSpeed) end() {
	close(h.stop)
	<-h.done
}

// meterFor meters for d, doing nothing else.
func (h *hostSpeed) meterFor(d time.Duration) {
	h.start()
	time.Sleep(d)
	h.end()
}

// scale is the factor that turns a CPU time measured anywhere in this run
// into one at the reference host's speed.
func (h *hostSpeed) scale() float64 {
	return h.scaleOf(h.slices)
}

// scaleOf is (refSlice / mean slice of ss)^power; 0 without slices.
func (h *hostSpeed) scaleOf(ss []meterSlice) float64 {
	return math.Pow(ratio(refSlice.Seconds(), meanSlice(ss).Seconds()), h.power)
}

// scaleBetween is the factor for a CPU time spent between from and to:
// it is taken over the slices that started in that span, widened until
// it holds minWindowSlices.
func (h *hostSpeed) scaleBetween(from, to time.Time) float64 {
	for {
		var in []meterSlice
		for _, s := range h.slices {
			if !s.at.Before(from) && !s.at.After(to) {
				in = append(in, s)
			}
		}
		if len(in) >= min(minWindowSlices, len(h.slices)) {
			return h.scaleOf(in)
		}
		from, to = from.Add(-slicePeriod), to.Add(slicePeriod)
	}
}

// interval is a span of wall time the run measured.
type interval struct {
	start time.Time
	dur   time.Duration
}

// scaled is the interval's length in seconds at the reference host speed.
func (iv interval) scaled(h *hostSpeed) float64 {
	return iv.dur.Seconds() * h.scaleBetween(iv.start, iv.start.Add(iv.dur))
}

func meanSlice(ss []meterSlice) time.Duration {
	if len(ss) == 0 {
		return 0
	}
	var t time.Duration
	for _, s := range ss {
		t += s.cpu
	}
	return t / time.Duration(len(ss))
}

func (h *hostSpeed) String() string {
	return fmt.Sprintf("mean scale %.4f = (%v / mean slice %.4f ms over %d slices)^%g", h.scale(), refSlice,
		ms(meanSlice(h.slices)), len(h.slices), h.power)
}

// meterSink keeps the meter's work from being optimized away.
var meterSink uint64

// tableWalk reads and updates iters xorshift-chosen entries of table,
// starting from state x, and returns the new state.
func tableWalk(table []uint32, x uint64, iters int) uint64 {
	mask := uint64(len(table) - 1)
	var acc uint32
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		v := table[j]
		if v&1 == 0 {
			acc += v >> 1
		} else {
			acc ^= v * 3
		}
		table[j] = v + uint32(i)
	}
	return x + uint64(acc)
}

// mapOps updates ops LCG-chosen keys of a map that stays at most 16 Ki
// entries, so it allocates nothing once grown, and returns the new state.
func mapOps(m map[uint64]uint64, x uint64, ops int) uint64 {
	for i := 0; i < ops; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		m[x>>50] += x
	}
	return x
}

// threadCPU is the calling OS thread's CPU time, read with
// clock_gettime(CLOCK_THREAD_CPUTIME_ID), which is exact to the
// nanosecond where getrusage(RUSAGE_THREAD) lags by up to a scheduler
// tick.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime: %v", errno))
	}
	return time.Duration(ts.Nano())
}
