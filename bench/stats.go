package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"syscall"
	"time"

	"dspatch/internal/sim"
)

// quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method), so spreads computed here match the acceptance arithmetic.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// peakRSSMB is the process's peak resident set (VmHWM), in MiB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// digest hashes results by the exact bits of every reported number, so a
// change that only speeds up the simulator leaves it unchanged and any change
// to a simulated outcome moves it.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digest) metrics(ipc []float64, cycles uint64, coverage, mispred, accuracy, bw float64) {
	d.u64(uint64(len(ipc)))
	for _, x := range ipc {
		d.u64(math.Float64bits(x))
	}
	d.u64(cycles)
	for _, x := range []float64{coverage, mispred, accuracy, bw} {
		d.u64(math.Float64bits(x))
	}
}

func (d *digest) result(r sim.Result) {
	d.metrics(r.IPC, r.Cycles, r.Coverage, r.MispredRate, r.Accuracy, r.AvgBandwidthGBps)
}

func (d *digest) String() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// sameResult reports whether two results agree bit for bit on every metric
// the bench reports.
func sameResult(a, b sim.Result) bool {
	if len(a.IPC) != len(b.IPC) || a.Cycles != b.Cycles {
		return false
	}
	for i := range a.IPC {
		if math.Float64bits(a.IPC[i]) != math.Float64bits(b.IPC[i]) {
			return false
		}
	}
	for _, p := range [][2]float64{
		{a.Coverage, b.Coverage}, {a.MispredRate, b.MispredRate},
		{a.Accuracy, b.Accuracy}, {a.AvgBandwidthGBps, b.AvgBandwidthGBps},
	} {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			return false
		}
	}
	return true
}

// validResult is the per-point output check: every number finite, every
// lane retired work.
func validResult(r sim.Result) bool {
	if len(r.IPC) == 0 || r.Cycles == 0 {
		return false
	}
	for _, x := range r.IPC {
		if !(x > 0) || !finite(x) {
			return false
		}
	}
	return finite(r.Coverage, r.MispredRate, r.Accuracy, r.AvgBandwidthGBps)
}

// checks tallies the operations a run attempted and the ones that failed,
// with a note per failure.
type checks struct {
	attempted, failed int
	notes             []string
}

// expect counts one operation that succeeded when ok holds.
func (c *checks) expect(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.notes) < 20 {
			c.notes = append(c.notes, fmt.Sprintf(format, args...))
		}
	}
}
