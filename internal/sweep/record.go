package sweep

import (
	"encoding/json"
	"math"
	"strconv"
)

// appendPointRecord appends rec's JSON encoding to b: the bytes
// json.Marshal(rec) produces, written without reflection, because a
// campaign stream holds one point record per point. The rare parts of a
// record (a point's scenarios, per-prefetcher telemetry, a string that
// needs escaping) still go through json.Marshal. It reports false when rec
// holds a value json.Marshal rejects, a non-finite float: the caller then
// marshals rec to get the error.
func appendPointRecord(b []byte, rec *PointRecord) ([]byte, bool) {
	m := &rec.Metrics
	if !finite(m.IPC) || !finite(rec.Speedup) ||
		!finite([]float64{m.Coverage, m.MispredRate, m.Accuracy, m.AvgBandwidthGBps, m.PeakBandwidth}) {
		return b, false
	}
	b = append(b, `{"type":`...)
	b = appendString(b, rec.Type)
	b = append(b, `,"index":`...)
	b = strconv.AppendInt(b, rec.Index, 10)
	b = append(b, `,"point":`...)
	b, ok := appendPoint(b, &rec.Point)
	if !ok {
		return b, false
	}
	b = append(b, `,"metrics":{"ipc":`...)
	b = appendFloats(b, m.IPC)
	b = append(b, `,"cycles":`...)
	b = strconv.AppendUint(b, m.Cycles, 10)
	b = append(b, `,"coverage":`...)
	b = appendFloat(b, m.Coverage)
	b = append(b, `,"mispred_rate":`...)
	b = appendFloat(b, m.MispredRate)
	b = append(b, `,"accuracy":`...)
	b = appendFloat(b, m.Accuracy)
	b = append(b, `,"avg_bw_gbps":`...)
	b = appendFloat(b, m.AvgBandwidthGBps)
	b = append(b, `,"peak_bw_gbps":`...)
	b = appendFloat(b, m.PeakBandwidth)
	b = append(b, '}')
	if len(rec.Speedup) > 0 {
		b = append(b, `,"speedup":`...)
		b = appendFloats(b, rec.Speedup)
	}
	if rec.Baseline {
		b = append(b, `,"baseline":true`...)
	}
	if len(rec.Prefetchers) > 0 {
		b = append(b, `,"prefetchers":`...)
		if b, ok = appendMarshal(b, rec.Prefetchers); !ok {
			return b, false
		}
	}
	return append(b, '}'), true
}

// appendPoint appends p's JSON encoding (see appendPointRecord).
func appendPoint(b []byte, p *Point) ([]byte, bool) {
	b = append(b, `{"workloads":`...)
	if p.Workloads == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, w := range p.Workloads {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, w)
		}
		b = append(b, ']')
	}
	b = appendIntField(b, `,"refs":`, int64(p.Refs))
	b = appendIntField(b, `,"seed":`, p.Seed)
	if p.L2 != "" {
		b = append(b, `,"l2":`...)
		b = appendString(b, p.L2)
	}
	b = appendIntField(b, `,"llc_bytes":`, int64(p.LLCBytes))
	b = appendIntField(b, `,"dram_channels":`, int64(p.DRAMChannels))
	b = appendIntField(b, `,"dram_mtps":`, int64(p.DRAMMTps))
	if p.NoL1Stride {
		b = append(b, `,"no_l1_stride":true`...)
	}
	b = appendIntField(b, `,"sms_pht_entries":`, int64(p.SMSPHTEntries))
	if p.TrackPollution {
		b = append(b, `,"track_pollution":true`...)
	}
	if p.CollectStats {
		b = append(b, `,"collect_stats":true`...)
	}
	if len(p.Scenarios) > 0 {
		b = append(b, `,"scenarios":`...)
		var ok bool
		if b, ok = appendMarshal(b, p.Scenarios); !ok {
			return b, false
		}
	}
	return append(b, '}'), true
}

// appendIntField appends an omitempty integer field: nothing when v is 0.
func appendIntField(b []byte, name string, v int64) []byte {
	if v == 0 {
		return b
	}
	b = append(b, name...)
	return strconv.AppendInt(b, v, 10)
}

// appendString appends s as a JSON string. A string of printable ASCII
// that encoding/json would not escape is copied between quotes; any other
// goes through json.Marshal, which escapes HTML characters, control bytes
// and invalid UTF-8 its own way.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloats appends vs as a JSON array, or null when vs is nil.
func appendFloats(b []byte, vs []float64) []byte {
	if vs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, v)
	}
	return append(b, ']')
}

// appendFloat appends a finite f the way encoding/json encodes a float64:
// the shortest representation that round-trips, in exponent form only
// below 1e-6 or from 1e21 on, with a one-digit negative exponent unpadded.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 to e-7
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendMarshal appends json.Marshal(v), reporting whether it succeeded.
func appendMarshal(b []byte, v any) ([]byte, bool) {
	j, err := json.Marshal(v)
	return append(b, j...), err == nil
}

// finite reports whether every value of vs is finite.
func finite(vs []float64) bool {
	for _, v := range vs {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return false
		}
	}
	return true
}
