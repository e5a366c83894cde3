package main

import (
	"math"
	"sort"
	"time"
)

// window is one fixed slice of a measured run.
type window struct {
	steal float64       // share of the host's CPU time stolen by the hypervisor
	ops   uint64        // operations completed
	bits  uint64        // payload bits completed
	busy  time.Duration // wall-clock time the window measured
	cpu   time.Duration // process CPU time over the same span
	lat   reservoir     // per-operation latency, ms
}

// windowSet assigns operations to fixed-length windows by a timestamp.
type windowSet struct {
	start time.Time
	width time.Duration
	w     []window
}

// windowWidth is the nominal window length. Steal on a shared host comes
// and goes at this scale even when it averages a quarter of the CPU over
// seconds, so short windows leave calm ones to measure in.
const windowWidth = 250 * time.Millisecond

// newWindowSet covers [start, start+length) with windows of about
// windowWidth (at least one).
func newWindowSet(start time.Time, length time.Duration) *windowSet {
	n := int(math.Round(float64(length) / float64(windowWidth)))
	if n < 1 {
		n = 1
	}
	ws := &windowSet{start: start, width: length / time.Duration(n), w: make([]window, n)}
	for i := range ws.w {
		ws.w[i].busy = ws.width
	}
	return ws
}

// at returns the window holding t, or nil when t is outside the run.
func (ws *windowSet) at(t time.Time) *window {
	if t.Before(ws.start) {
		return nil
	}
	i := int(t.Sub(ws.start) / ws.width)
	if i >= len(ws.w) {
		return nil
	}
	return &ws.w[i]
}

// watchSteal samples /proc/stat and the process CPU clock at every window
// boundary in the background, filling each window's steal share and, with
// fillCPU (for workloads that do not meter CPU time themselves), its CPU
// time. The returned wait blocks until the last window has been filled.
func (ws *windowSet) watchSteal(fillCPU bool) (wait func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(time.Until(ws.start))
		prev, prevCPU := readCPUTimes(), processCPU()
		for i := range ws.w {
			time.Sleep(time.Until(ws.start.Add(time.Duration(i+1) * ws.width)))
			cur, cpu := readCPUTimes(), processCPU()
			ws.w[i].steal = stealFrac(prev, cur)
			if fillCPU {
				ws.w[i].cpu = cpu - prevCPU
			}
			prev, prevCPU = cur, cpu
		}
	}()
	return func() { <-done }
}

// reservoirCap bounds the samples a reservoir keeps, so the benchmark's
// memory (and so rss_peak_MB) does not grow with the program's speed.
const reservoirCap = 2048

// reservoir keeps a uniform random sample of the values added to it
// (Vitter's Algorithm R with a fixed-seed generator, so the same sequence
// keeps the same sample).
type reservoir struct {
	v    []float64
	seen uint64
	rng  uint64
}

func (r *reservoir) add(x float64) {
	r.seen++
	if len(r.v) < reservoirCap {
		r.v = append(r.v, x)
		return
	}
	r.rng = splitmix64(r.rng)
	if j := r.rng % r.seen; j < reservoirCap {
		r.v[j] = x
	}
}

// merge appends o's sample; the connections it merges carry equal load.
func (r *reservoir) merge(o *reservoir) {
	r.v = append(r.v, o.v...)
	r.seen += o.seen
}

// sorted returns a sorted copy of the sample.
func (r *reservoir) sorted() []float64 {
	s := append([]float64(nil), r.v...)
	sort.Float64s(s)
	return s
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// e2e is the end-to-end summary of a measured run.
//
// Every figure is computed per window and reported as the median over the
// calmest quarter of the windows (see calmest), ranked by the hypervisor
// steal measured in each. On a shared VM a neighbour can take a quarter of the CPU for
// tens of seconds; a window it hits measures the neighbour, and a median
// over the calm windows measures the program. The all-window medians are
// kept for the run-context block.
type e2e struct {
	// hostMbps and reqPerS are per CPU-second of the whole process, which
	// steal does not inflate; the wall variants are per wall-clock second.
	hostMbps, reqPerS     float64
	wallMbps, wallReqPerS float64
	p50, p99              float64 // ms
	allP50, allP99        float64 // the same over every window
	windows, calm         int
	samples               uint64
	// The per-window values, in time order.
	perWindowMbps, perWindowP50, perWindowP99, perWindowSteal []float64
}

func summarize(ws []window) e2e {
	var s e2e
	var mbps, rps, wallMbps, wallRps, p50, p99, steal []float64
	for _, w := range ws {
		if w.busy <= 0 || w.cpu <= 0 || w.ops == 0 {
			continue
		}
		ns, cpuNs := float64(w.busy.Nanoseconds()), float64(w.cpu.Nanoseconds())
		mbps = append(mbps, float64(w.bits)/cpuNs*1e3)
		rps = append(rps, float64(w.ops)/cpuNs*1e9)
		wallMbps = append(wallMbps, float64(w.bits)/ns*1e3)
		wallRps = append(wallRps, float64(w.ops)/ns*1e9)
		lat := w.lat.sorted()
		p50 = append(p50, percentile(lat, 50))
		p99 = append(p99, percentile(lat, 99))
		steal = append(steal, w.steal)
		s.samples += w.lat.seen
	}
	calm := calmest(steal)
	s.hostMbps, s.reqPerS = medianOf(mbps, calm), medianOf(rps, calm)
	s.wallMbps, s.wallReqPerS = medianOf(wallMbps, calm), medianOf(wallRps, calm)
	s.p50, s.p99 = medianOf(p50, calm), medianOf(p99, calm)
	s.allP50, s.allP99 = median(p50), median(p99)
	s.windows, s.calm = len(steal), len(calm)
	s.perWindowMbps, s.perWindowP50, s.perWindowP99, s.perWindowSteal = wallMbps, p50, p99, steal
	return s
}

// calmest returns the indices, in time order, of the windows whose steal
// is no more than that of the calmest quarter's (at least one window).
// Steal is counted in 10 ms ticks, so ties are common; all tied windows
// count, and a run without steal keeps every window.
func calmest(steal []float64) []int {
	if len(steal) == 0 {
		return nil
	}
	sorted := append([]float64(nil), steal...)
	sort.Float64s(sorted)
	limit := sorted[(len(sorted)+3)/4-1]
	var idx []int
	for i, s := range steal {
		if s <= limit {
			idx = append(idx, i)
		}
	}
	return idx
}

// medianOf is the median of v at the given indices.
func medianOf(v []float64, idx []int) float64 {
	sel := make([]float64, len(idx))
	for i, j := range idx {
		sel[i] = v[j]
	}
	return median(sel)
}

// percentile is the nearest-rank percentile of sorted values (0 if none).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median of unsorted values (0 if none); the input is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
