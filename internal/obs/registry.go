package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// This file is the metrics registry: fixed-bucket histograms with
// lock-free hot-path updates, plus pull collectors that bridge the
// stack's existing counter structs (cluster snapshots, shaper stats,
// server wire totals) into the same read path. Everything that renders
// metrics — the Prometheus text endpoint, the STATS wire op, the CLI
// report — goes through Gather, so there is exactly one exposition
// format and one naming scheme.

// Histogram is a fixed-bucket histogram: upper bounds are set at
// registration, updates are a linear probe plus atomic increments — no
// allocation, no lock.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	total  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count reads the total observation count.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sample is one gathered metric point. Labels, when non-empty, is the
// pre-rendered Prometheus label body (`key="value",...` without braces).
type Sample struct {
	Name   string
	Labels string
	Value  float64
}

// Registry holds metric collectors. A Histogram registers an emitting
// closure at creation; existing counter structs elsewhere in the stack
// join via RegisterFunc without changing their hot paths.
type Registry struct {
	mu         sync.Mutex
	collectors []func(emit func(Sample))
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// RegisterFunc adds a pull collector: fn is called at every Gather and
// emits whatever samples it wants. Collectors must be safe to call from
// any goroutine (read atomics or published snapshots, not live
// single-caller state).
func (r *Registry) RegisterFunc(fn func(emit func(Sample))) {
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// Histogram creates and registers a fixed-bucket histogram; bounds are
// the bucket upper bounds in ascending order (a +Inf bucket is implied).
// It exposes name_bucket{le=...} cumulative counts plus name_sum and
// name_count, the Prometheus histogram convention.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Uint64, len(h.bounds)+1)
	r.RegisterFunc(func(emit func(Sample)) {
		cum := uint64(0)
		for i := range h.bounds {
			cum += h.counts[i].Load()
			emit(Sample{Name: name + "_bucket", Labels: fmt.Sprintf(`le="%g"`, h.bounds[i]), Value: float64(cum)})
		}
		cum += h.counts[len(h.bounds)].Load()
		emit(Sample{Name: name + "_bucket", Labels: `le="+Inf"`, Value: float64(cum)})
		emit(Sample{Name: name + "_sum", Value: math.Float64frombits(h.sum.Load())})
		emit(Sample{Name: name + "_count", Value: float64(h.total.Load())})
	})
	return h
}

// Gather runs every collector and returns the samples sorted by name
// then labels — a stable order, so two gathers over the same state
// render identical text.
func (r *Registry) Gather() []Sample {
	r.mu.Lock()
	collectors := make([]func(emit func(Sample)), len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.Unlock()
	var out []Sample
	emit := func(s Sample) { out = append(out, s) }
	for _, fn := range collectors {
		fn(emit)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Labels < out[j].Labels
	})
	return out
}

// WriteProm renders the gathered samples in the Prometheus text
// exposition format.
func (r *Registry) WriteProm(w io.Writer) error {
	for _, s := range r.Gather() {
		var err error
		if s.Labels == "" {
			_, err = fmt.Fprintf(w, "%s %g\n", s.Name, s.Value)
		} else {
			_, err = fmt.Fprintf(w, "%s{%s} %g\n", s.Name, s.Labels, s.Value)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
