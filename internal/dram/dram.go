// Package dram models DDR4 main memory at the fidelity DSPatch (MICRO 2019)
// needs: per-bank row buffers with open-page policy, a shared per-channel
// data bus that bounds achievable bandwidth, CAS command counting, and the
// 2-bit quantized bandwidth-utilization signal (§3.2) that the memory
// controller broadcasts to all cores.
//
// All times are core clock cycles (4 GHz per paper Table 2). Requests are
// scheduled at arrival: a request reserves its bank and the channel data bus
// at the earliest cycles allowed by the timing constraints, so queueing delay
// and bandwidth saturation emerge naturally from resource contention.
package dram

import (
	"strconv"

	"dspatch/internal/bitpattern"
	"dspatch/internal/memaddr"
)

// Config describes one main-memory configuration. Construct with DDR4 for
// the speed grades the paper evaluates.
type Config struct {
	Channels     int // independent channels (1 for ST, 2 for MP in the paper)
	MTps         int // mega-transfers/s: 1600, 2133 or 2400
	RanksPerChan int
	BanksPerRank int

	CoreClockMHz int // core frequency the cycle counts are expressed in

	// DRAM timing in nanoseconds (paper Table 2: tCL=tRCD=tRP=15ns, tRAS=39ns).
	TCLns, TRCDns, TRPns, TRASns float64

	RowBufferBytes int // per-bank row buffer (2KB per paper)
}

// DDR4 returns the paper's DDR4 configuration at the given channel count and
// speed grade (1600, 2133 or 2400 MT/s), clocked against a 4 GHz core.
func DDR4(channels, mtps int) Config {
	return Config{
		Channels:       channels,
		MTps:           mtps,
		RanksPerChan:   2,
		BanksPerRank:   8,
		CoreClockMHz:   4000,
		TCLns:          15,
		TRCDns:         15,
		TRPns:          15,
		TRASns:         39,
		RowBufferBytes: 2048,
	}
}

// cycles converts nanoseconds to core cycles, rounding to nearest.
func (c Config) cycles(ns float64) uint64 {
	return uint64(ns*float64(c.CoreClockMHz)/1000 + 0.5)
}

// TCL etc. expose the timing parameters in core cycles.
func (c Config) TCL() uint64  { return c.cycles(c.TCLns) }
func (c Config) TRCD() uint64 { return c.cycles(c.TRCDns) }
func (c Config) TRP() uint64  { return c.cycles(c.TRPns) }
func (c Config) TRAS() uint64 { return c.cycles(c.TRASns) }

// TRC is the minimum time between two activations of the same bank
// (tRAS + tRP), the unit of the bandwidth monitor's windows.
func (c Config) TRC() uint64 { return c.TRAS() + c.TRP() }

// BurstCycles is the core-cycle occupancy of the channel data bus per CAS:
// a 64B line needs 8 transfers on the 64-bit bus.
func (c Config) BurstCycles() uint64 {
	return uint64(8*float64(c.CoreClockMHz)/float64(c.MTps) + 0.5)
}

// PeakBandwidthGBps is the theoretical peak across all channels
// (MT/s × 8 bytes per transfer per channel).
func (c Config) PeakBandwidthGBps() float64 {
	return float64(c.Channels) * float64(c.MTps) * 8 / 1000
}

// PeakCASPerWindow is the maximum number of CAS commands all channels can
// issue in one monitor window of 4×tRC cycles. It defines the quartile
// thresholds of the bandwidth-utilization signal.
func (c Config) PeakCASPerWindow() int {
	window := 4 * c.TRC()
	return int(window/c.BurstCycles()) * c.Channels
}

// String names the configuration by channels and speed grade, as the
// bandwidth figures label it: "1ch-DDR4-2133".
func (c Config) String() string { return string(c.AppendName(nil)) }

// AppendName appends String's name to b.
func (c Config) AppendName(b []byte) []byte {
	b = strconv.AppendInt(b, int64(c.Channels), 10)
	b = append(b, "ch-DDR4-"...)
	return strconv.AppendInt(b, int64(c.MTps), 10)
}

// bank tracks one DRAM bank's row buffer and availability. Column accesses
// to an open row pipeline at the burst rate (nextCAS); row activations are
// spaced by tRC and precharges respect tRAS.
type bank struct {
	openRow      int64 // -1 when precharged/idle
	nextCAS      uint64
	nextActivate uint64
	lastActivate uint64
}

// channel is one independent memory channel with its own data bus. Demands
// have transfer priority: they queue only behind other demands
// (busDemandFree), while prefetches and write-backs consume leftover
// capacity (busAllFree, which demand transfers also advance so total
// throughput never exceeds the pin bandwidth).
type channel struct {
	banks         []bank
	busDemandFree uint64
	busAllFree    uint64
}

// Stats accumulates DRAM traffic counters for reporting.
type Stats struct {
	Reads       uint64
	Writes      uint64
	RowHits     uint64
	RowMisses   uint64 // row conflict or empty row
	TotalCAS    uint64
	BusyCycles  uint64 // cycles the data buses were transferring
	QueueCycles uint64 // total cycles requests waited before service
}

// DRAM is one main-memory instance shared by all cores of a simulation.
type DRAM struct {
	cfg   Config
	chans []channel
	mon   *Monitor
	stats Stats

	linesPerRow uint64
	chanMask    uint64
	chanShift   uint
	bankCount   uint64

	// rowShift/bankMask/bankShift fold the per-access bank mapping's
	// divisions into shifts and masks; valid because lines-per-row and the
	// bank count are powers of two for every DDR4 geometry (asserted in New).
	rowShift  uint
	bankMask  uint64
	bankShift uint

	// Timing constants in core cycles, precomputed once: the Config methods
	// convert nanoseconds with float math, far too slow for a per-access path.
	tCL, tRCD, tRP, tRAS, tRC, burst, nominal uint64
}

// New builds a DRAM instance from cfg.
func New(cfg Config) *DRAM {
	if cfg.Channels < 1 || cfg.Channels&(cfg.Channels-1) != 0 {
		panic("dram: channel count must be a power of two")
	}
	d := &DRAM{
		cfg:         cfg,
		chans:       make([]channel, cfg.Channels),
		linesPerRow: uint64(cfg.RowBufferBytes / memaddr.LineBytes),
		chanMask:    uint64(cfg.Channels - 1),
		chanShift:   uint(trailingBits(uint64(cfg.Channels))),
		bankCount:   uint64(cfg.RanksPerChan * cfg.BanksPerRank),
		tCL:         cfg.TCL(),
		tRCD:        cfg.TRCD(),
		tRP:         cfg.TRP(),
		tRAS:        cfg.TRAS(),
		tRC:         cfg.TRC(),
		burst:       cfg.BurstCycles(),
	}
	d.nominal = d.tRCD + d.tCL + d.burst
	if d.linesPerRow&(d.linesPerRow-1) != 0 || d.bankCount&(d.bankCount-1) != 0 {
		panic("dram: lines per row and bank count must be powers of two")
	}
	d.rowShift = trailingBits(d.linesPerRow)
	d.bankMask = d.bankCount - 1
	d.bankShift = trailingBits(d.bankCount)
	for i := range d.chans {
		d.chans[i].banks = make([]bank, d.bankCount)
		for b := range d.chans[i].banks {
			d.chans[i].banks[b].openRow = -1
		}
	}
	d.mon = NewMonitor(cfg)
	return d
}

// Access schedules one demand 64B line transfer arriving at cycle now and
// returns the cycle at which the data transfer completes. The latency seen
// by the requester is done-now.
func (d *DRAM) Access(now uint64, line memaddr.Line, write bool) (done uint64) {
	return d.AccessPriority(now, line, write, true)
}

// AccessPriority schedules a transfer with explicit priority: demand=true
// for the core's demand fetches, false for speculative prefetches and
// write-backs, which yield the data bus to demands.
func (d *DRAM) AccessPriority(now uint64, line memaddr.Line, write, demand bool) (done uint64) {
	// Address mapping: channels interleave at line granularity so streams
	// use all channels; banks interleave at row granularity within a channel.
	l := uint64(line)
	chIdx := l & d.chanMask
	rowGlobal := l >> d.chanShift >> d.rowShift
	bIdx := rowGlobal & d.bankMask
	row := int64(rowGlobal >> d.bankShift)

	ch := &d.chans[chIdx]
	bk := &ch.banks[bIdx]

	var casTime uint64
	switch {
	case bk.openRow == row:
		casTime = max64(now, bk.nextCAS)
		d.stats.RowHits++
	case bk.openRow == -1:
		actTime := max64(max64(now, bk.nextActivate), bk.nextCAS)
		casTime = actTime + d.tRCD
		bk.nextActivate = actTime + d.tRC
		bk.lastActivate = actTime
		d.stats.RowMisses++
	default:
		preTime := max64(max64(now, bk.nextCAS), bk.lastActivate+d.tRAS)
		actTime := max64(preTime+d.tRP, bk.nextActivate)
		casTime = actTime + d.tRCD
		bk.nextActivate = actTime + d.tRC
		bk.lastActivate = actTime
		d.stats.RowMisses++
	}
	bk.openRow = row

	dataReady := casTime + d.tCL
	burst := d.burst
	var busStart uint64
	if demand {
		busStart = max64(dataReady, ch.busDemandFree)
		ch.busDemandFree = busStart + burst
		// A demand transfer also consumes total capacity, pushing queued
		// prefetch transfers back.
		ch.busAllFree = max64(ch.busAllFree, busStart) + burst
	} else {
		busStart = max64(dataReady, ch.busAllFree)
		ch.busAllFree = busStart + burst
	}
	// If the bus delayed the transfer, the controller would have delayed the
	// CAS too; keep the bank's CAS pipeline aligned with the bus.
	bk.nextCAS = busStart - d.tCL + burst
	done = busStart + burst

	d.stats.TotalCAS++
	d.stats.BusyCycles += burst
	d.stats.QueueCycles += busStart - dataReady + (casTime - min64(casTime, now))
	if write {
		d.stats.Writes++
	} else {
		d.stats.Reads++
	}
	d.mon.RecordCAS(busStart)
	return done
}

// Utilization returns the 2-bit quantized bandwidth-utilization signal as of
// cycle now — the value the memory controller broadcasts to all cores (§3.2).
func (d *DRAM) Utilization(now uint64) bitpattern.Quartile {
	return d.mon.Signal(now)
}

// Stats returns a copy of the accumulated traffic counters.
func (d *DRAM) Stats() Stats { return d.stats }

// NominalLatency is the queue-free demand fetch latency (activate + CAS +
// transfer). The memory system uses it to bound the wait of a demand that
// merges with an in-flight low-priority prefetch: the controller promotes
// such a prefetch to demand priority.
func (d *DRAM) NominalLatency() uint64 { return d.nominal }

// PrefetchQueueDepth is the per-channel backlog bound for speculative
// transfers, in data-bus bursts. A prefetch that would queue deeper than
// this is rejected by the memory controller (TryPrefetch), which keeps
// speculative traffic from holding MSHRs for unbounded stretches.
const PrefetchQueueDepth = 64

// TryPrefetch schedules a low-priority transfer like
// AccessPriority(now, line, false, false), unless the target channel's
// leftover-bandwidth backlog — the queueing beyond the intrinsic fetch
// latency — already exceeds PrefetchQueueDepth bursts, in which case the
// request is rejected and consumes nothing.
func (d *DRAM) TryPrefetch(now uint64, line memaddr.Line) (done uint64, ok bool) {
	ch := &d.chans[uint64(line)&d.chanMask]
	limit := now + d.nominal + PrefetchQueueDepth*d.burst
	if ch.busAllFree > limit {
		return 0, false
	}
	return d.AccessPriority(now, line, false, false), true
}

// AvgBandwidthGBps reports the average delivered bandwidth over the first
// `cycles` cycles of the simulation.
func (d *DRAM) AvgBandwidthGBps(cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	bytes := float64(d.stats.TotalCAS) * memaddr.LineBytes
	seconds := float64(cycles) / (float64(d.cfg.CoreClockMHz) * 1e6)
	return bytes / seconds / 1e9
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func trailingBits(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
