package experiments

import (
	"encoding/binary"
	"hash/crc32"
	"math"

	"dspatch/internal/prefstats"
	"dspatch/internal/sim"
)

// A run-store entry is one stored run: the bytes a DirStore file holds. All
// words are little-endian:
//
//	magic   "DSRE"
//	u32     total entry length, trailer included
//	u32     sim.ResultVersion of the simulator that wrote it
//	u32     key length, then the run key
//	u32     len(IPC), then each IPC as Float64bits
//	u64     Cycles
//	8×u64   Coverage, MispredRate, Accuracy, AvgBandwidthGBps,
//	        PeakBandwidth, Pollution[0..2], as Float64bits
//	u32     len(PortStats), then each port as portWords u64s
//	u32     Prefetchers length, then prefstats.EncodeList (0 = nil)
//	u32     CRC32-IEEE of every preceding byte
//
// decodeEntry reads anything else as a miss: a wrong magic, length, CRC,
// version or key, a count the remaining bytes cannot hold, or trailing bytes.
// Entries written by earlier builds (JSON) fail the magic check, so they
// re-simulate once, as after a ResultVersion bump.
const entryMagic = "DSRE"

const (
	entryHeaderLen = 16 // magic, length, version, key length
	entryFloats    = 8  // the fixed float fields, Coverage..Pollution[2]
	portWords      = 12 // memsys.CoverageStats' 10 counters, Useful, Unused
	// maxEntryLen bounds one entry, so a corrupt length word cannot drive a
	// large read or allocation.
	maxEntryLen = 64 << 20
)

// encodeEntry renders res as key's entry.
func encodeEntry(key string, res sim.Result) []byte {
	pref := prefstats.EncodeList(res.Prefetchers)
	n := entryHeaderLen + len(key) +
		4 + 8*len(res.IPC) +
		8 + 8*entryFloats +
		4 + 8*portWords*len(res.PortStats) +
		4 + len(pref) +
		4
	le := binary.LittleEndian
	b := make([]byte, 0, n)
	b = append(b, entryMagic...)
	b = le.AppendUint32(b, uint32(n))
	b = le.AppendUint32(b, sim.ResultVersion)
	b = le.AppendUint32(b, uint32(len(key)))
	b = append(b, key...)
	b = le.AppendUint32(b, uint32(len(res.IPC)))
	for _, v := range res.IPC {
		b = le.AppendUint64(b, math.Float64bits(v))
	}
	b = le.AppendUint64(b, res.Cycles)
	for _, v := range [entryFloats]float64{res.Coverage, res.MispredRate, res.Accuracy,
		res.AvgBandwidthGBps, res.PeakBandwidth, res.Pollution[0], res.Pollution[1], res.Pollution[2]} {
		b = le.AppendUint64(b, math.Float64bits(v))
	}
	b = le.AppendUint32(b, uint32(len(res.PortStats)))
	for _, p := range res.PortStats {
		c := p.Coverage
		for _, v := range [portWords]uint64{c.L1Accesses, c.L1Misses, c.Covered, c.Uncovered,
			c.PrefetchDRAM, c.PrefetchDRAML1, c.PrefetchLLC, c.PrefetchDrop, c.DemandDRAM, c.Writebacks,
			p.UsefulPrefetches, p.UnusedPrefetches} {
			b = le.AppendUint64(b, v)
		}
	}
	b = le.AppendUint32(b, uint32(len(pref)))
	b = append(b, pref...)
	return le.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// entryFramed reports whether data starts with the entry magic and is
// exactly as long as its length word says.
func entryFramed(data []byte) bool {
	return len(data) >= entryHeaderLen+4 && string(data[:4]) == entryMagic &&
		uint64(binary.LittleEndian.Uint32(data[4:8])) == uint64(len(data))
}

// decodeEntry returns the Result key's entry data holds, reporting false on
// anything but an intact entry for key written at the current
// sim.ResultVersion. It allocates only the Result's own slices, each after
// checking its count against the bytes that remain.
func decodeEntry(data, key []byte) (sim.Result, bool) {
	if !entryFramed(data) {
		return sim.Result{}, false
	}
	body := data[:len(data)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(body):]) {
		return sim.Result{}, false
	}
	d := entryDecoder{b: body[8:], ok: true}
	if d.u32() != sim.ResultVersion || string(d.bytes(int(d.u32()))) != string(key) || !d.ok {
		return sim.Result{}, false
	}
	var res sim.Result
	if n := d.count(8); n > 0 {
		res.IPC = make([]float64, n)
		for i := range res.IPC {
			res.IPC[i] = d.f64()
		}
	}
	res.Cycles = d.u64()
	for _, p := range [entryFloats]*float64{&res.Coverage, &res.MispredRate, &res.Accuracy,
		&res.AvgBandwidthGBps, &res.PeakBandwidth, &res.Pollution[0], &res.Pollution[1], &res.Pollution[2]} {
		*p = d.f64()
	}
	if n := d.count(8 * portWords); n > 0 {
		res.PortStats = make([]sim.PortStats, n)
		for i := range res.PortStats {
			p := &res.PortStats[i]
			c := &p.Coverage
			for _, w := range [portWords]*uint64{&c.L1Accesses, &c.L1Misses, &c.Covered, &c.Uncovered,
				&c.PrefetchDRAM, &c.PrefetchDRAML1, &c.PrefetchLLC, &c.PrefetchDrop, &c.DemandDRAM, &c.Writebacks,
				&p.UsefulPrefetches, &p.UnusedPrefetches} {
				*w = d.u64()
			}
		}
	}
	pref := d.bytes(int(d.u32()))
	if !d.ok || len(d.b) != 0 {
		return sim.Result{}, false // short or trailing bytes
	}
	var err error
	if res.Prefetchers, err = prefstats.DecodeList(pref); err != nil {
		return sim.Result{}, false
	}
	return res, true
}

// entryDecoder reads little-endian words off b. A read past the end yields
// zeros and clears ok, so a decode checks ok once instead of per field.
type entryDecoder struct {
	b  []byte
	ok bool
}

func (d *entryDecoder) bytes(n int) []byte {
	if !d.ok || n < 0 || n > len(d.b) {
		d.ok, d.b = false, nil
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

func (d *entryDecoder) u32() uint32 {
	if v := d.bytes(4); v != nil {
		return binary.LittleEndian.Uint32(v)
	}
	return 0
}

func (d *entryDecoder) u64() uint64 {
	if v := d.bytes(8); v != nil {
		return binary.LittleEndian.Uint64(v)
	}
	return 0
}

func (d *entryDecoder) f64() float64 { return math.Float64frombits(d.u64()) }

// count reads an element count and returns it only if the remaining bytes
// can hold that many elements of size bytes each; otherwise it fails the
// decode and returns 0, so no allocation outgrows the input.
func (d *entryDecoder) count(size int) int {
	n := uint64(d.u32())
	if !d.ok || n > uint64(len(d.b)/size) {
		d.ok, d.b = false, nil
		return 0
	}
	return int(n)
}
