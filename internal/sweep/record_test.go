package sweep

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"dspatch/internal/sim"
	"dspatch/internal/trace"
)

// Flags of fuzzRecord, one bit each.
const (
	fuzzNilWorkloads = 1 << iota
	fuzzNoL1Stride
	fuzzTrackPollution
	fuzzCollectStats
	fuzzScenarios
	fuzzNilIPC
	fuzzEmptySpeedup
	fuzzBaseline
	fuzzPrefetchers
)

// fuzzRecord builds a point record from fuzz input. names splits at NUL
// into the workloads; ints is read as little-endian words (zero past its
// end, so short inputs exercise omitempty) and floats as float64 bits: the
// five scalar metrics, then IPC (as many as flags>>12 says) and Speedup.
func fuzzRecord(names, l2 string, ints, floats []byte, flags uint16) PointRecord {
	word := func(i int) int64 {
		var w [8]byte
		if 8*i < len(ints) {
			copy(w[:], ints[8*i:])
		}
		return int64(binary.LittleEndian.Uint64(w[:]))
	}
	var fs []float64
	for ; len(floats) >= 8; floats = floats[8:] {
		fs = append(fs, math.Float64frombits(binary.LittleEndian.Uint64(floats)))
	}
	f := func(i int) float64 {
		if i < len(fs) {
			return fs[i]
		}
		return 0
	}
	p := Point{
		Workloads:      strings.Split(names, "\x00"),
		Refs:           int(word(0)),
		Seed:           word(1),
		L2:             l2,
		LLCBytes:       int(word(2)),
		DRAMChannels:   int(word(3)),
		DRAMMTps:       int(word(4)),
		NoL1Stride:     flags&fuzzNoL1Stride != 0,
		SMSPHTEntries:  int(word(5)),
		TrackPollution: flags&fuzzTrackPollution != 0,
		CollectStats:   flags&fuzzCollectStats != 0,
	}
	if flags&fuzzNilWorkloads != 0 {
		p.Workloads = nil
	}
	if flags&fuzzScenarios != 0 {
		p.Scenarios = []trace.ScenarioSpec{{Name: names, Kind: l2}}
	}
	rec := PointRecord{
		Type:  "point",
		Index: word(6),
		Point: p,
		Metrics: Metrics{
			Cycles:           uint64(word(7)),
			Coverage:         f(0),
			MispredRate:      f(1),
			Accuracy:         f(2),
			AvgBandwidthGBps: f(3),
			PeakBandwidth:    f(4),
		},
		Baseline: flags&fuzzBaseline != 0,
	}
	rest := fs[min(5, len(fs)):]
	nIPC := min(int(flags>>12), len(rest))
	if flags&fuzzNilIPC == 0 {
		rec.Metrics.IPC = append([]float64{}, rest[:nIPC]...)
	}
	rec.Speedup = rest[nIPC:]
	if flags&fuzzEmptySpeedup != 0 {
		rec.Speedup = []float64{}
	}
	if flags&fuzzPrefetchers != 0 {
		rec.Prefetchers = []sim.PrefetcherStats{{Name: l2, Counters: map[string]uint64{names: uint64(word(8))}}}
	}
	return rec
}

// FuzzPointRecordEncoding requires appendPointRecord to write exactly the
// bytes json.Marshal does, over every Point field, the omitempty edges (zero
// numbers, false flags, nil and empty slices), strings that need escaping
// and floats of every magnitude; and to decline exactly the records
// json.Marshal rejects, those with a non-finite float.
func FuzzPointRecordEncoding(f *testing.F) {
	le := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return b
	}
	floats := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add("mcf", "dspatch+spp", le(40000, 1, 2<<20, 1, 2133, 0, 3, 123456),
		floats(0.5, 0.125, 0.75, 3.25, 17.0625, 1.25, 1.03), uint16(1<<12))
	f.Add("a\x00b", "none", le(5000, 7, 8<<20, 2, 2400, 1024, 11, 99, 4),
		floats(1e-7, -0.0, 1e21, 123456789.125, 2.5e-324, 0.7, 0.8, 1.1, 0.9), uint16(2<<12|fuzzBaseline|fuzzCollectStats|fuzzPrefetchers))
	// One character that needs care per workload name.
	f.Add("a<b\x00c>d\x00e&f\x00g\"h\x00i\\j\x00k\x01l\x00\u00e9\x00\xff\x00m\u2028n", "x\x7fy",
		le(), floats(), uint16(fuzzNilIPC|fuzzEmptySpeedup|fuzzScenarios|fuzzNoL1Stride|fuzzTrackPollution))
	f.Add("", "", le(), floats(), uint16(fuzzNilWorkloads))
	f.Add("mcf", "spp", le(1), floats(math.Inf(1)), uint16(0))
	f.Add("mcf", "spp", le(1), floats(1, 2, 3, 4, 5, math.NaN()), uint16(1<<12))
	f.Fuzz(func(t *testing.T, names, l2 string, ints, floats []byte, flags uint16) {
		rec := fuzzRecord(names, l2, ints, floats, flags)
		want, err := json.Marshal(&rec)
		got, ok := appendPointRecord([]byte("prefix"), &rec)
		if ok != (err == nil) {
			t.Fatalf("encoder ok=%t, json.Marshal error %v", ok, err)
		}
		if !bytes.HasPrefix(got, []byte("prefix")) {
			t.Fatalf("encoder dropped the bytes it appends to: %q", got)
		}
		if ok && !bytes.Equal(got[len("prefix"):], want) {
			t.Fatalf("encoder and json.Marshal differ:\n got %s\nwant %s", got[len("prefix"):], want)
		}
	})
}
