// Package bus models the processor-memory bus assumed by the Active Pages
// paper: 32 bits of data transferred between memory and cache every 10 ns
// (Section 3, Table 1 discussion).
//
// The model charges transfer time proportional to bytes moved and counts
// traffic, which is what the paper's sensitivity analyses depend on. It does
// not model arbitration between multiple initiators; the simulated system
// has a single processor.
package bus

import (
	"activepages/internal/obs"
	"activepages/internal/sim"
)

// Config describes the bus.
type Config struct {
	// WordBytes is the width of one bus beat in bytes (paper: 4).
	WordBytes uint64
	// BeatTime is the duration of one beat (paper: 10 ns).
	BeatTime sim.Duration
}

// DefaultConfig returns the paper's bus: 32 bits per 10 ns.
func DefaultConfig() Config {
	return Config{WordBytes: 4, BeatTime: 10 * sim.Nanosecond}
}

// Stats accumulates bus activity.
type Stats struct {
	Transfers uint64 // discrete transfer operations
	Bytes     uint64 // total bytes moved
	BusyTime  sim.Duration
}

// Bus is the shared processor-memory interconnect.
type Bus struct {
	cfg   Config
	Stats Stats
	// hist records the duration of every transfer (registered as
	// "<prefix>.transfer" by Observe).
	hist *obs.Histogram
	// OnTransfer, when set, is invoked after every transfer with the bytes
	// moved and the transfer time — the tracing hook. It must be nil when
	// tracing is off so the transfer path pays only a nil check.
	OnTransfer func(bytes uint64, d sim.Duration)
}

// New returns a bus with the given configuration.
func New(cfg Config) *Bus {
	if cfg.WordBytes == 0 {
		cfg.WordBytes = 4
	}
	if cfg.BeatTime == 0 {
		cfg.BeatTime = 10 * sim.Nanosecond
	}
	return &Bus{cfg: cfg, hist: obs.NewHistogram()}
}

// Config returns the bus configuration.
func (b *Bus) Config() Config { return b.cfg }

// Observe registers the bus's counters under prefix (e.g. "mem.bus").
func (b *Bus) Observe(r *obs.Registry, prefix string) {
	r.Counter(prefix+".transfers", func() uint64 { return b.Stats.Transfers })
	r.Counter(prefix+".bytes", func() uint64 { return b.Stats.Bytes })
	r.Timer(prefix+".busy", func() sim.Duration { return b.Stats.BusyTime })
	r.Histogram(prefix+".transfer", b.hist)
}

// TransferTime returns the time to move n bytes across the bus, rounded up
// to whole beats, and records the traffic.
func (b *Bus) TransferTime(n uint64) sim.Duration {
	if n == 0 {
		return 0
	}
	beats := (n + b.cfg.WordBytes - 1) / b.cfg.WordBytes
	d := sim.Duration(beats) * b.cfg.BeatTime
	b.Stats.Transfers++
	b.Stats.Bytes += n
	b.Stats.BusyTime += d
	b.hist.Observe(d)
	if b.OnTransfer != nil {
		b.OnTransfer(n, d)
	}
	return d
}

// AddFoldStats adds periods repetitions of the per-period statistics delta,
// used by the stream-folding layer to fast-forward the stateless bus. The
// transfer histogram is advanced separately via AddHistDelta.
func (b *Bus) AddFoldStats(delta Stats, periods uint64) {
	b.Stats.Transfers += delta.Transfers * periods
	b.Stats.Bytes += delta.Bytes * periods
	b.Stats.BusyTime += delta.BusyTime * sim.Duration(periods)
}

// StatsDelta returns s minus prev, element-wise.
func (s Stats) StatsDelta(prev Stats) Stats {
	return Stats{
		Transfers: s.Transfers - prev.Transfers,
		Bytes:     s.Bytes - prev.Bytes,
		BusyTime:  s.BusyTime - prev.BusyTime,
	}
}

// HistCheckpoint captures the transfer histogram's contents.
func (b *Bus) HistCheckpoint() obs.HistCheckpoint { return b.hist.Checkpoint() }

// AddHistDelta replays a checkpoint delta times over into the transfer
// histogram.
func (b *Bus) AddHistDelta(delta obs.HistCheckpoint, times uint64) {
	b.hist.AddDelta(delta, times)
}
