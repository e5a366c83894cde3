package qos

import (
	"testing"

	"mccp/internal/obs"
	"mccp/internal/sim"
	"mccp/internal/verdict"
)

// shaperAllocs measures allocations for one submit-and-drain round trip
// through the shaper with the given tracer attached (nil = no tracer).
func shaperAllocs(attach bool) float64 {
	eng, ft := newFake(4)
	s := NewShaper(eng, ft, Config{Capacity: 8})
	if attach {
		s.SetTracer(obs.NewTracer(eng, obs.TraceConfig{}))
	}
	payload := make([]byte, 64)
	cb := func(_ []byte, err error) {}
	// Warm the item pool and the event queue so steady state is measured.
	for i := 0; i < 8; i++ {
		s.Encrypt(Voice, 1, nil, nil, payload, cb)
	}
	eng.Run()
	return testing.AllocsPerRun(200, func() {
		s.Encrypt(Voice, 1, nil, nil, payload, cb)
		eng.Run()
	})
}

// TestTracerDisabledAddsNoAllocations: with a tracer attached but
// disabled, the per-packet path must allocate exactly as much as with no
// tracer at all — the observability plane costs a branch, nothing more.
func TestTracerDisabledAddsNoAllocations(t *testing.T) {
	without := shaperAllocs(false)
	with := shaperAllocs(true)
	if with > without {
		t.Errorf("disabled tracer adds allocations: %.1f with vs %.1f without (per packet)",
			with, without)
	}
	t.Logf("allocs/packet: %.1f without tracer, %.1f with disabled tracer", without, with)
}

// TestTracerSpansMatchShaperVerdicts: with tracing on, every admission
// opens a span and every span's end-to-end duration equals the latency
// sample the shaper records for it — the identity the E18 harness
// reconciliation rests on.
func TestTracerSpansMatchShaperVerdicts(t *testing.T) {
	eng, ft := newFake(2)
	s := NewShaper(eng, ft, Config{Capacity: 4})
	tr := obs.NewTracer(eng, obs.TraceConfig{Enabled: true})
	s.SetTracer(tr)
	payload := make([]byte, 128)
	const packets = 12
	for i := 0; i < packets; i++ {
		s.Encrypt(Class(i%NumClasses), 1, nil, nil, payload, func(_ []byte, err error) {})
	}
	eng.Run()

	spans := tr.Spans()
	if len(spans) != packets {
		t.Fatalf("%d spans, want %d", len(spans), packets)
	}
	var latencies []sim.Time
	for c := Class(0); int(c) < NumClasses; c++ {
		latencies = s.AppendLatencySamples(c, latencies)
	}
	counts := map[sim.Time]int{}
	for _, l := range latencies {
		counts[l]++
	}
	for i := range spans {
		sp := &spans[i]
		if sp.Outcome != verdict.OK {
			t.Errorf("span %d outcome %v, want ok", sp.ID, sp.Outcome)
			continue
		}
		if counts[sp.Total()] == 0 {
			t.Errorf("span %d total %d has no matching shaper latency sample", sp.ID, sp.Total())
			continue
		}
		counts[sp.Total()]--
	}
}
