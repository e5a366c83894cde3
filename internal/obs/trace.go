// Package obs is the observability plane: a metrics registry every layer
// exposes counters through (one read path for the Prometheus text
// endpoint, the STATS wire op and the CLI report), deterministic
// virtual-time span tracing of the packet lifecycle, and a per-shard
// flight recorder that freezes a ring of recent spans and events into a
// postmortem dump when a crash, quarantine or brownout fires.
//
// The package sits below qos/radio/cluster in the import graph: the
// instrumented layers call into obs, never the other way around, and
// every tracer/recorder method is safe on a nil receiver so an
// uninstrumented path pays nothing but a branch.
package obs

import (
	"fmt"
	"io"
	"time"

	"mccp/internal/sim"
	"mccp/internal/verdict"
)

// Stage is one segment of a packet's lifecycle. The five stages tile the
// span exactly: their durations always sum to End-Start, so per-stage
// attribution reconciles with the end-to-end latency the shaper reports.
type Stage uint8

const (
	// StageQueue: shaper admission to drain-policy dispatch (class-queue
	// wait).
	StageQueue Stage = iota
	// StageSched: dispatch to the device's core assignment (scheduler +
	// device request queue).
	StageSched
	// StageXbarUp: assignment to the last upload word written (crossbar
	// input streaming).
	StageXbarUp
	// StageCore: upload complete to result retrieval (crypto core
	// service, including the output-ready interrupt wait).
	StageCore
	// StageDrain: retrieval to completion delivery (output crossbar read,
	// reassembly, transfer-done handshake).
	StageDrain

	// NumStages is the stage count.
	NumStages = int(StageDrain) + 1
)

var stageNames = [NumStages]string{"queue", "sched", "xbar_up", "core", "drain"}

func (s Stage) String() string {
	if int(s) >= NumStages {
		return "invalid"
	}
	return stageNames[s]
}

// Mark is an intermediate lifecycle timestamp (the boundary between two
// adjacent stages; Start and End bound the outer edges).
type Mark uint8

const (
	// MarkDispatch: the drain policy popped the packet from its class
	// queue toward the device.
	MarkDispatch Mark = iota
	// MarkAssign: the device granted a core assignment.
	MarkAssign
	// MarkUpload: the last input stream finished crossing the crossbar.
	MarkUpload
	// MarkRetrieve: the result was retrieved from the device.
	MarkRetrieve

	numMarks = int(MarkRetrieve) + 1
)

// Span is one packet's lifecycle record. All times are virtual (the
// owning shard's cycles), so a traced run replays bit-identically;
// HostNs is the wall clock at span start and is the one nondeterministic
// field — Digest excludes it and determinism comparisons must zero it.
type Span struct {
	// ID is the span's sequence number on its tracer (every arrival
	// consumes one, sampled or not, so IDs are stable across sampling
	// rates).
	ID uint64
	// Tag identifies the tracer's owner (the shard ID in a cluster; 0
	// standalone).
	Tag int32
	// Class is the packet's QoS class; Bytes its payload size.
	Class uint8
	Bytes int
	// Start is shaper admission; Marks the intermediate boundaries
	// (valid where the Reached bit is set — 0 is a legal cycle count);
	// End the completion or verdict delivery.
	Start   sim.Time
	Marks   [numMarks]sim.Time
	Reached uint8
	End     sim.Time
	Outcome verdict.Verdict
	// HostNs is the host wall clock (UnixNano) at span start.
	HostNs int64
}

// ReachedMark reports whether the span passed the given boundary.
func (sp *Span) ReachedMark(m Mark) bool { return sp.Reached&(1<<m) != 0 }

// Total is the span's end-to-end virtual duration.
func (sp *Span) Total() sim.Time { return sp.End - sp.Start }

// Stages decomposes the span into per-stage durations. Boundaries the
// packet never reached collapse onto End (a packet shed at admission
// spends its whole life in StageQueue), so the stage durations always
// sum to Total exactly.
func (sp *Span) Stages() [NumStages]sim.Time {
	var b [NumStages + 1]sim.Time
	b[0] = sp.Start
	b[NumStages] = sp.End
	for i := numMarks; i >= 1; i-- {
		if sp.ReachedMark(Mark(i - 1)) {
			b[i] = sp.Marks[i-1]
		} else {
			b[i] = b[i+1]
		}
	}
	var out [NumStages]sim.Time
	for i := 0; i < NumStages; i++ {
		out[i] = b[i+1] - b[i]
	}
	return out
}

// SpanRef addresses a live span inside its tracer. The zero value is a
// valid reference — always initialize span fields from Start, which
// returns NoSpan when tracing is off or the packet is not sampled.
type SpanRef int32

// NoSpan is the absent-span reference; every tracer method ignores it.
const NoSpan SpanRef = -1

// TraceConfig configures a Tracer.
type TraceConfig struct {
	// Enabled turns tracing on. Disabled (the default), every tracer
	// method is a branch and the packet path allocates nothing.
	Enabled bool
	// Sample is the traced fraction of packets (0 or >= 1 traces all),
	// decided per arrival by a seeded splitmix64 stream so the choice is
	// deterministic and independent of payload contents.
	Sample float64
	// Seed seeds the sampling stream.
	Seed uint64
	// Tag stamps every span (the shard ID in a cluster).
	Tag int32
	// Classify maps a completion error to a span outcome (layers that
	// know the whole verdict taxonomy install verdict.For); nil falls back
	// to OK/Failed.
	Classify func(error) verdict.Verdict
	// OnEnd, when set, observes every span at End (the flight recorder's
	// hook). The span is owned by the tracer; implementations must copy
	// if they retain it past the call.
	OnEnd func(*Span)
}

// Tracer records packet lifecycle spans against one discrete-event
// engine's virtual clock. It is single-threaded like the simulation it
// observes, never schedules events, and only reads the clock — attaching
// a tracer cannot perturb virtual time, which is what makes a traced
// run's metrics bit-identical to an untraced one. A nil *Tracer is a
// valid, disabled tracer.
type Tracer struct {
	eng       *sim.Engine
	cfg       TraceConfig
	sampleAll bool
	threshold uint64
	rng       uint64
	nextID    uint64
	spans     []Span
	pending   SpanRef
}

// NewTracer builds a tracer over an engine's clock.
func NewTracer(eng *sim.Engine, cfg TraceConfig) *Tracer {
	t := &Tracer{eng: eng, cfg: cfg, pending: NoSpan, rng: cfg.Seed}
	t.sampleAll = cfg.Sample <= 0 || cfg.Sample >= 1
	if !t.sampleAll {
		t.threshold = uint64(cfg.Sample * float64(1<<63) * 2)
	}
	return t
}

// splitmix64 advances the sampling stream (the same generator
// arrivals.Rand splits from, so sampling is as reproducible as the
// traffic itself).
func splitmix64(s *uint64) uint64 {
	*s += 0x9E3779B97F4A7C15
	z := *s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Enabled reports whether spans are being recorded.
func (t *Tracer) Enabled() bool { return t != nil && t.cfg.Enabled }

// Start opens a span for one packet at the current virtual time and
// returns its reference — NoSpan when tracing is off or the sampler
// skipped the packet (both make every later call on the ref a no-op).
func (t *Tracer) Start(class uint8, bytes int) SpanRef {
	if t == nil || !t.cfg.Enabled {
		return NoSpan
	}
	id := t.nextID
	t.nextID++
	if !t.sampleAll && splitmix64(&t.rng) >= t.threshold {
		return NoSpan
	}
	t.spans = append(t.spans, Span{
		ID: id, Tag: t.cfg.Tag, Class: class, Bytes: bytes,
		Start: t.eng.Now(), HostNs: time.Now().UnixNano(),
	})
	return SpanRef(len(t.spans) - 1)
}

// MarkNow stamps a lifecycle boundary at the current virtual time.
func (t *Tracer) MarkNow(ref SpanRef, m Mark) {
	if t == nil || ref < 0 {
		return
	}
	sp := &t.spans[ref]
	sp.Marks[m] = t.eng.Now()
	sp.Reached |= 1 << m
}

// End closes a span with an outcome at the current virtual time and
// delivers it to the OnEnd hook.
func (t *Tracer) End(ref SpanRef, o verdict.Verdict) {
	if t == nil || ref < 0 {
		return
	}
	sp := &t.spans[ref]
	sp.End = t.eng.Now()
	sp.Outcome = o
	if t.cfg.OnEnd != nil {
		t.cfg.OnEnd(sp)
	}
}

// EndErr closes a span with the outcome classified from a completion
// error (TraceConfig.Classify, defaulting to OK/Failed).
func (t *Tracer) EndErr(ref SpanRef, err error) {
	if t == nil || ref < 0 {
		return
	}
	o := verdict.OK
	switch {
	case t.cfg.Classify != nil:
		o = t.cfg.Classify(err)
	case err != nil:
		o = verdict.Failed
	}
	t.End(ref, o)
}

// SetPending parks a span reference for the device layer to claim: the
// shaper sets it immediately before invoking the device submission it
// wraps, and the device controller takes it at the top of its submit
// path. The handoff is synchronous (the whole simulation is
// single-threaded), so one slot suffices and no allocation crosses the
// layer boundary.
func (t *Tracer) SetPending(ref SpanRef) {
	if t != nil {
		t.pending = ref
	}
}

// TakePending claims and clears the parked span reference.
func (t *Tracer) TakePending() SpanRef {
	if t == nil {
		return NoSpan
	}
	ref := t.pending
	t.pending = NoSpan
	return ref
}

// Spans returns the recorded spans in start order. The slice is owned by
// the tracer; callers must not mutate it while tracing continues.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// Digest folds every deterministic span field into an FNV-64a
// fingerprint — HostNs, the one wall-clock field, is excluded, so two
// runs of the same seeded workload digest identically.
func (t *Tracer) Digest() uint64 {
	if t == nil {
		return 0
	}
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	for i := range t.spans {
		sp := &t.spans[i]
		mix(sp.ID)
		mix(uint64(uint32(sp.Tag)))
		mix(uint64(sp.Class))
		mix(uint64(sp.Bytes))
		mix(uint64(sp.Start))
		for _, m := range sp.Marks {
			mix(uint64(m))
		}
		mix(uint64(sp.Reached))
		mix(uint64(sp.End))
		mix(uint64(sp.Outcome))
	}
	return h
}

// SpanCSVHeader names the columns WriteSpansCSV emits.
const SpanCSVHeader = "id,tag,class,bytes,start_cycle,end_cycle,outcome,queue,sched,xbar_up,core,drain,host_ns\n"

// WriteSpansCSV writes spans as CSV rows under SpanCSVHeader, stage
// durations pre-derived.
func WriteSpansCSV(w io.Writer, spans []Span) error {
	if _, err := io.WriteString(w, SpanCSVHeader); err != nil {
		return err
	}
	for i := range spans {
		sp := &spans[i]
		st := sp.Stages()
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%s,%d,%d,%d,%d,%d,%d\n",
			sp.ID, sp.Tag, sp.Class, sp.Bytes, sp.Start, sp.End, sp.Outcome,
			st[0], st[1], st[2], st[3], st[4], sp.HostNs); err != nil {
			return err
		}
	}
	return nil
}

// WriteSpansJSONL writes spans as JSON Lines, one object per span, with
// the same pre-derived stage durations as the CSV form.
func WriteSpansJSONL(w io.Writer, spans []Span) error {
	for i := range spans {
		sp := &spans[i]
		st := sp.Stages()
		if _, err := fmt.Fprintf(w,
			`{"id":%d,"tag":%d,"class":%d,"bytes":%d,"start_cycle":%d,"end_cycle":%d,"outcome":%q,"stages":{"queue":%d,"sched":%d,"xbar_up":%d,"core":%d,"drain":%d},"host_ns":%d}`+"\n",
			sp.ID, sp.Tag, sp.Class, sp.Bytes, sp.Start, sp.End, sp.Outcome.String(),
			st[0], st[1], st[2], st[3], st[4], sp.HostNs); err != nil {
			return err
		}
	}
	return nil
}
