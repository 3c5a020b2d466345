package service

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"sync"
)

// histogram is a fixed-bucket Prometheus histogram. It is observed once per
// job, so one mutex is cheap enough.
type histogram struct {
	bounds []float64 // bucket upper bounds, ascending; +Inf is implicit

	mu     sync.Mutex
	counts []uint64 // per bucket, not cumulative; the last is +Inf
	sum    float64
}

func newHistogram(bounds ...float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: le is inclusive
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.mu.Unlock()
}

// write renders h in the Prometheus text format: the cumulative _bucket
// series, then _sum and _count.
func (h *histogram) write(b *bytes.Buffer, name, help string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var n uint64
	for i, c := range h.counts {
		n += c
		le := "+Inf"
		if i < len(h.bounds) {
			le = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
		}
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, le, n)
	}
	fmt.Fprintf(b, "%s_sum %s\n%s_count %d\n", name, strconv.FormatFloat(h.sum, 'g', -1, 64), name, n)
}
