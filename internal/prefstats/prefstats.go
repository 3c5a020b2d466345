// Package prefstats defines the flat counter/histogram schema prefetcher
// models use to report internal telemetry — Page Buffer hit rates, pattern
// selection reasons, bandwidth-quartile histograms — through the optional
// prefetch.StatsReporter interface. The schema is deliberately plain data:
// string-keyed maps of uint64 counters and flat named-bucket histograms, so
// snapshots marshal deterministically (encoding/json sorts map keys), merge
// associatively across lanes and jobs, and survive disk caches without
// version coupling to any model's internals.
package prefstats

import "encoding/json"

// Histogram is a flat histogram: parallel bucket-label and count slices.
// Labels are part of the schema a model reports (e.g. "q0".."q3" for DRAM
// bandwidth quartiles), so merges match buckets by label, not position.
type Histogram struct {
	Buckets []string `json:"buckets"`
	Counts  []uint64 `json:"counts"`
}

// Total returns the sum of all bucket counts.
func (h Histogram) Total() uint64 {
	var t uint64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// clone returns an independent copy of h.
func (h Histogram) clone() Histogram {
	return Histogram{
		Buckets: append([]string(nil), h.Buckets...),
		Counts:  append([]uint64(nil), h.Counts...),
	}
}

// add merges src into h by bucket label: matching labels sum, unseen labels
// append in src order. Returns the merged histogram (h may be reused).
func (h Histogram) add(src Histogram) Histogram {
	idx := make(map[string]int, len(h.Buckets))
	for i, b := range h.Buckets {
		idx[b] = i
	}
	for i, b := range src.Buckets {
		if j, ok := idx[b]; ok {
			h.Counts[j] += src.Counts[i]
		} else {
			idx[b] = len(h.Buckets)
			h.Buckets = append(h.Buckets, b)
			h.Counts = append(h.Counts, src.Counts[i])
		}
	}
	return h
}

// Stats is one prefetcher's telemetry snapshot. Name identifies the model
// ("dspatch", "spp", ...); snapshots with equal names merge by summing.
type Stats struct {
	Name       string               `json:"name"`
	Counters   map[string]uint64    `json:"counters,omitempty"`
	Histograms map[string]Histogram `json:"histograms,omitempty"`
}

// New returns an empty snapshot for the named model.
func New(name string) Stats {
	return Stats{
		Name:     name,
		Counters: map[string]uint64{},
	}
}

// Count adds v to the named counter. Zero values are skipped so snapshots
// only carry counters the run actually exercised.
func (s *Stats) Count(name string, v uint64) {
	if v == 0 {
		return
	}
	if s.Counters == nil {
		s.Counters = map[string]uint64{}
	}
	s.Counters[name] += v
}

// Hist records a histogram under name, skipping all-zero histograms. The
// counts slice is copied; labels are referenced (callers pass literals).
func (s *Stats) Hist(name string, buckets []string, counts []uint64) {
	var nonzero bool
	for _, c := range counts {
		if c != 0 {
			nonzero = true
			break
		}
	}
	if !nonzero {
		return
	}
	if s.Histograms == nil {
		s.Histograms = map[string]Histogram{}
	}
	h := Histogram{Buckets: buckets, Counts: append([]uint64(nil), counts...)}
	if prev, ok := s.Histograms[name]; ok {
		h = prev.add(h)
	}
	s.Histograms[name] = h
}

// Clone returns a deep copy of s.
func (s Stats) Clone() Stats {
	out := Stats{Name: s.Name}
	if s.Counters != nil {
		out.Counters = make(map[string]uint64, len(s.Counters))
		for k, v := range s.Counters {
			out.Counters[k] = v
		}
	}
	if s.Histograms != nil {
		out.Histograms = make(map[string]Histogram, len(s.Histograms))
		for k, v := range s.Histograms {
			out.Histograms[k] = v.clone()
		}
	}
	return out
}

// merge adds src's counters and histograms into s (same Name assumed).
func (s *Stats) merge(src Stats) {
	for k, v := range src.Counters {
		s.Count(k, v)
	}
	for k, v := range src.Histograms {
		if s.Histograms == nil {
			s.Histograms = map[string]Histogram{}
		}
		if prev, ok := s.Histograms[k]; ok {
			s.Histograms[k] = prev.add(v)
		} else {
			s.Histograms[k] = v.clone()
		}
	}
}

// Merge folds src into dst by model name: snapshots sharing a Name sum
// counter-wise and histogram-wise (buckets matched by label); new names
// append in src order. dst's existing order is preserved, so repeated
// merges of per-lane or per-job reports stay deterministic. The returned
// slice owns its data — src is never aliased.
func Merge(dst []Stats, src []Stats) []Stats {
	for _, st := range src {
		found := false
		for i := range dst {
			if dst[i].Name == st.Name {
				dst[i].merge(st)
				found = true
				break
			}
		}
		if !found {
			dst = append(dst, st.Clone())
		}
	}
	return dst
}

// EncodeList renders snapshots in their deterministic JSON form, with nil
// (no snapshots collected) as no bytes at all. Persistent stores embed it.
func EncodeList(list []Stats) []byte {
	if list == nil {
		return nil
	}
	b, err := json.Marshal(list)
	if err != nil {
		panic("prefstats: " + err.Error()) // strings and uint64s always marshal
	}
	return b
}

// DecodeList parses EncodeList's output; no bytes decode to nil. Empty
// counter and histogram maps decode to nil, as EncodeList omits both, so
// a decoded list re-encodes and decodes to itself.
func DecodeList(b []byte) ([]Stats, error) {
	if len(b) == 0 {
		return nil, nil
	}
	var list []Stats
	if err := json.Unmarshal(b, &list); err != nil {
		return nil, err
	}
	for i := range list {
		if len(list[i].Counters) == 0 {
			list[i].Counters = nil
		}
		if len(list[i].Histograms) == 0 {
			list[i].Histograms = nil
		}
	}
	return list, nil
}
