package dram

import "dspatch/internal/bitpattern"

// Monitor implements the paper's bandwidth-utilization tracker (§3.2): a
// counter at the memory controller counts CAS commands; every window of
// 4×tRC cycles the counter is halved (hysteresis); every tRC the counter is
// compared against the 25/50/75% quartile thresholds of the peak CAS count
// per window, producing a 2-bit signal that is broadcast to all cores.
//
// The steady state of "accumulate r CAS per window, then halve" converges to
// a start-of-window value of r, so tRC samples taken during a window read
// between 1.25r and 2r (average 13r/8). The quartile thresholds are therefore
// taken against 13/8 × PeakCASPerWindow, which makes the quantized signal an
// unbiased estimate of the true utilization fraction.
//
// The monitor is advanced lazily: state is brought up to date whenever a CAS
// is recorded or the signal is sampled, which is equivalent to per-cycle
// updates because nothing changes between events.
type Monitor struct {
	counter    int
	peak       int    // 13/8 × peak CAS per window
	windowLen  uint64 // 4 × tRC
	sampleLen  uint64 // tRC
	nextHalve  uint64
	lastSample uint64
	signal     bitpattern.Quartile
}

// NewMonitor builds a bandwidth monitor for the given DRAM configuration.
func NewMonitor(cfg Config) *Monitor {
	trc := cfg.TRC()
	return &Monitor{
		peak:      cfg.PeakCASPerWindow() * 13 / 8,
		windowLen: 4 * trc,
		sampleLen: trc,
		nextHalve: 4 * trc,
	}
}

// RecordCAS notes one column access command issued at cycle now.
func (m *Monitor) RecordCAS(now uint64) {
	m.advance(now)
	m.counter++
}

// Signal returns the current 2-bit utilization quartile as of cycle now.
func (m *Monitor) Signal(now uint64) bitpattern.Quartile {
	m.advance(now)
	return m.signal
}

// advance replays window halvings and tRC samplings up to cycle now. Once
// the counter has decayed to zero, every remaining halving is a no-op and
// every remaining sample reads Q0, so the replay completes in closed form —
// a long DRAM-idle stretch costs O(1) instead of one iteration per tRC.
func (m *Monitor) advance(now uint64) {
	for m.counter != 0 && m.nextHalve <= now {
		// Sample the signal at every tRC boundary inside the elapsed window.
		for m.lastSample+m.sampleLen <= m.nextHalve {
			m.lastSample += m.sampleLen
			m.signal = bitpattern.QuartileOf(m.counter, m.peak)
		}
		m.counter >>= 1
		m.nextHalve += m.windowLen
	}
	if m.counter == 0 {
		m.advanceIdle(now)
		return
	}
	for m.lastSample+m.sampleLen <= now {
		m.lastSample += m.sampleLen
		m.signal = bitpattern.QuartileOf(m.counter, m.peak)
	}
}

// advanceIdle replays the remaining boundaries up to now while the counter is
// zero: halvings keep it zero and every sample lands in Q0.
func (m *Monitor) advanceIdle(now uint64) {
	if m.lastSample+m.sampleLen <= now {
		n := (now - m.lastSample) / m.sampleLen
		m.lastSample += n * m.sampleLen
		m.signal = bitpattern.Q0
	}
	if m.nextHalve <= now {
		k := (now-m.nextHalve)/m.windowLen + 1
		m.nextHalve += k * m.windowLen
	}
}
