package dram

import (
	"testing"

	"dspatch/internal/bitpattern"
	"dspatch/internal/memaddr"
)

func TestConfigTimings(t *testing.T) {
	cfg := DDR4(1, 2133)
	// 15ns at 4GHz = 60 cycles; 39ns = 156 cycles.
	if cfg.TCL() != 60 || cfg.TRCD() != 60 || cfg.TRP() != 60 {
		t.Errorf("tCL/tRCD/tRP = %d/%d/%d, want 60", cfg.TCL(), cfg.TRCD(), cfg.TRP())
	}
	if cfg.TRAS() != 156 {
		t.Errorf("tRAS = %d, want 156", cfg.TRAS())
	}
	if cfg.TRC() != 216 {
		t.Errorf("tRC = %d, want 216", cfg.TRC())
	}
}

func TestBurstCycles(t *testing.T) {
	tests := []struct {
		mtps int
		want uint64
	}{
		{1600, 20}, // 8*4000/1600
		{2133, 15},
		{2400, 13}, // 13.33 rounds to 13
	}
	for _, tt := range tests {
		cfg := DDR4(1, tt.mtps)
		if got := cfg.BurstCycles(); got != tt.want {
			t.Errorf("BurstCycles(%d) = %d, want %d", tt.mtps, got, tt.want)
		}
	}
}

func TestPeakBandwidth(t *testing.T) {
	tests := []struct {
		ch, mtps int
		want     float64
	}{
		{1, 1600, 12.8},
		{1, 2133, 17.064},
		{2, 2400, 38.4},
	}
	for _, tt := range tests {
		cfg := DDR4(tt.ch, tt.mtps)
		if got := cfg.PeakBandwidthGBps(); got != tt.want {
			t.Errorf("PeakBandwidthGBps(%dch-%d) = %v, want %v", tt.ch, tt.mtps, got, tt.want)
		}
	}
}

func TestPeakCASPerWindow(t *testing.T) {
	cfg := DDR4(1, 2133)
	// window = 864 cycles, burst = 15 → 57 CAS per window per channel.
	if got := cfg.PeakCASPerWindow(); got != 57 {
		t.Errorf("PeakCASPerWindow = %d, want 57", got)
	}
	if got := DDR4(2, 2133).PeakCASPerWindow(); got != 114 {
		t.Errorf("2ch PeakCASPerWindow = %d, want 114", got)
	}
}

func TestSingleAccessLatency(t *testing.T) {
	d := New(DDR4(1, 2133))
	// Cold access: empty row → tRCD + tCL + burst = 60+60+15 = 135.
	done := d.Access(0, memaddr.Line(0), false)
	if done != 135 {
		t.Errorf("cold access latency = %d, want 135", done)
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	d := New(DDR4(1, 2133))
	base := memaddr.Line(0)
	d.Access(0, base, false)
	// Same row (line 1 maps to same row on 1 channel): row hit.
	start := uint64(100000)
	hitDone := d.Access(start, base+1, false)
	hitLat := hitDone - start
	// A line far away in the same bank: row conflict.
	d2 := New(DDR4(1, 2133))
	d2.Access(0, base, false)
	// rows interleave across 16 banks; row stride within a bank is
	// linesPerRow*bankCount lines.
	conflictLine := memaddr.Line(32 * 16)
	confDone := d2.Access(start, conflictLine, false)
	confLat := confDone - start
	if hitLat >= confLat {
		t.Errorf("row hit latency %d should be < conflict latency %d", hitLat, confLat)
	}
	if hitLat != 60+15 {
		t.Errorf("row hit latency = %d, want 75", hitLat)
	}
}

func TestRowStats(t *testing.T) {
	d := New(DDR4(1, 2133))
	d.Access(0, 0, false)
	d.Access(1000, 1, false) // same row: hit
	s := d.Stats()
	if s.RowHits != 1 || s.RowMisses != 1 {
		t.Errorf("stats = %+v, want 1 hit 1 miss", s)
	}
	if s.Reads != 2 || s.TotalCAS != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestWriteCountsSeparately(t *testing.T) {
	d := New(DDR4(1, 2133))
	d.Access(0, 0, true)
	if s := d.Stats(); s.Writes != 1 || s.Reads != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestBandwidthSaturation(t *testing.T) {
	// Issuing far more requests than the bus can carry must serialize: the
	// completion time of N back-to-back accesses is bounded below by N×burst.
	d := New(DDR4(1, 2133))
	const n = 1000
	var last uint64
	for i := 0; i < n; i++ {
		last = d.Access(0, memaddr.Line(i*32*16), false) // all distinct rows
	}
	if min := uint64(n) * d.cfg.BurstCycles(); last < min {
		t.Errorf("completion %d < bus-serialized minimum %d", last, min)
	}
}

func TestChannelsParallelism(t *testing.T) {
	// Two channels should roughly halve the completion time of a line stream.
	run := func(channels int) uint64 {
		d := New(DDR4(channels, 2133))
		var last uint64
		for i := 0; i < 2000; i++ {
			done := d.Access(0, memaddr.Line(i), false)
			if done > last {
				last = done
			}
		}
		return last
	}
	one, two := run(1), run(2)
	if two >= one {
		t.Errorf("2ch completion %d should beat 1ch %d", two, one)
	}
	ratio := float64(one) / float64(two)
	if ratio < 1.6 || ratio > 2.6 {
		t.Errorf("channel scaling ratio = %.2f, want ~2", ratio)
	}
}

func TestMonitorIdleIsQ0(t *testing.T) {
	m := NewMonitor(DDR4(1, 2133))
	if q := m.Signal(10_000_000); q != bitpattern.Q0 {
		t.Errorf("idle signal = %v, want Q0", q)
	}
}

func TestMonitorSaturatedIsQ3(t *testing.T) {
	cfg := DDR4(1, 2133)
	m := NewMonitor(cfg)
	// Record CAS at peak rate for many windows.
	burst := cfg.BurstCycles()
	var now uint64
	for i := 0; i < 4*cfg.PeakCASPerWindow()*10; i++ {
		m.RecordCAS(now)
		now += burst
	}
	if q := m.Signal(now); q != bitpattern.Q3 {
		t.Errorf("saturated signal = %v, want Q3", q)
	}
}

func TestMonitorHalfRateIsMidQuartile(t *testing.T) {
	cfg := DDR4(1, 2133)
	m := NewMonitor(cfg)
	burst := cfg.BurstCycles() * 2 // half rate
	var now uint64
	for i := 0; i < 4*cfg.PeakCASPerWindow()*10; i++ {
		m.RecordCAS(now)
		now += burst
	}
	q := m.Signal(now)
	if q != bitpattern.Q2 && q != bitpattern.Q1 {
		t.Errorf("half-rate signal = %v, want Q1 or Q2", q)
	}
}

func TestMonitorHysteresisDecay(t *testing.T) {
	cfg := DDR4(1, 2133)
	m := NewMonitor(cfg)
	var now uint64
	for i := 0; i < 4*cfg.PeakCASPerWindow(); i++ {
		m.RecordCAS(now)
		now += cfg.BurstCycles()
	}
	if m.Signal(now) != bitpattern.Q3 {
		t.Fatalf("expected saturated before idle period")
	}
	// After many idle windows the signal must decay to Q0.
	now += 20 * 4 * cfg.TRC()
	if q := m.Signal(now); q != bitpattern.Q0 {
		t.Errorf("signal after idle = %v, want Q0", q)
	}
}

func TestDRAMUtilizationEndToEnd(t *testing.T) {
	d := New(DDR4(1, 2133))
	// Saturate: issue sequential lines at time 0; the bus backpressure packs
	// them end to end, so the recorded CAS rate is the peak rate.
	for i := 0; i < 5000; i++ {
		d.Access(0, memaddr.Line(i), false)
	}
	// Sample in the middle of the busy period.
	if q := d.Utilization(20000); q < bitpattern.Q2 {
		t.Errorf("utilization during saturation = %v, want >= Q2", q)
	}
}

func TestAvgBandwidth(t *testing.T) {
	d := New(DDR4(1, 2133))
	var last uint64
	for i := 0; i < 10000; i++ {
		last = d.Access(0, memaddr.Line(i), false)
	}
	bw := d.AvgBandwidthGBps(last)
	peak := d.cfg.PeakBandwidthGBps()
	if bw > peak*1.01 {
		t.Errorf("delivered %v GB/s exceeds peak %v", bw, peak)
	}
	if bw < peak*0.5 {
		t.Errorf("sequential stream delivered only %v of %v GB/s", bw, peak)
	}
}

func TestBadChannelCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for 3 channels")
		}
	}()
	New(DDR4(3, 2133))
}
