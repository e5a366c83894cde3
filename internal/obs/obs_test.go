package obs

import (
	"strings"
	"testing"

	"mccp/internal/sim"
	"mccp/internal/verdict"
)

func TestRegistryGatherSortedAndPromText(t *testing.T) {
	r := NewRegistry()
	r.RegisterFunc(func(emit func(Sample)) {
		emit(Sample{Name: "mccp_test_packets_total", Value: 4})
		emit(Sample{Name: "mccp_test_depth", Value: 2.5})
	})
	r.RegisterFunc(func(emit func(Sample)) {
		emit(Sample{Name: "mccp_test_class", Labels: `class="voice"`, Value: 7})
	})

	samples := r.Gather()
	if len(samples) != 3 {
		t.Fatalf("gathered %d samples, want 3", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		prev, cur := samples[i-1], samples[i]
		if prev.Name > cur.Name || (prev.Name == cur.Name && prev.Labels > cur.Labels) {
			t.Errorf("gather not sorted: %v before %v", prev, cur)
		}
	}

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	want := "mccp_test_class{class=\"voice\"} 7\nmccp_test_depth 2.5\nmccp_test_packets_total 4\n"
	if b.String() != want {
		t.Errorf("prom text:\n%q\nwant:\n%q", b.String(), want)
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("mccp_test_latency", []float64{10, 100, 1000})
	for _, v := range []float64{5, 10, 50, 5000} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count %d, want 4", h.Count())
	}
	got := map[string]float64{}
	for _, s := range r.Gather() {
		got[s.Name+"{"+s.Labels+"}"] = s.Value
	}
	checks := map[string]float64{
		`mccp_test_latency_bucket{le="10"}`:   2, // 5 and the boundary value 10
		`mccp_test_latency_bucket{le="100"}`:  3,
		`mccp_test_latency_bucket{le="1000"}`: 3,
		`mccp_test_latency_bucket{le="+Inf"}`: 4,
		`mccp_test_latency_count{}`:           4,
		`mccp_test_latency_sum{}`:             5065,
	}
	for k, want := range checks {
		if got[k] != want {
			t.Errorf("%s = %g, want %g", k, got[k], want)
		}
	}
}

func TestTracerSamplingDeterministic(t *testing.T) {
	run := func() []uint64 {
		eng := sim.NewEngine()
		tr := NewTracer(eng, TraceConfig{Enabled: true, Sample: 0.5, Seed: 99})
		for i := 0; i < 256; i++ {
			ref := tr.Start(uint8(i%4), 64)
			tr.End(ref, verdict.OK)
		}
		ids := make([]uint64, 0, len(tr.Spans()))
		for _, sp := range tr.Spans() {
			ids = append(ids, sp.ID)
		}
		return ids
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("sampled %d vs %d spans", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("span %d: id %d vs %d", i, a[i], b[i])
		}
	}
	// A 0.5 sample over 256 arrivals lands well inside (0, 256); span IDs
	// must still count every arrival, so the last ID exceeds the count.
	if len(a) == 0 || len(a) == 256 {
		t.Errorf("sample rate 0.5 traced %d of 256", len(a))
	}
	if a[len(a)-1] < uint64(len(a)-1) {
		t.Errorf("span IDs not arrival-numbered: last %d over %d spans", a[len(a)-1], len(a))
	}
}

func TestTracerDisabledAndNilAreInert(t *testing.T) {
	eng := sim.NewEngine()
	disabled := NewTracer(eng, TraceConfig{})
	var nilTracer *Tracer
	for _, tr := range []*Tracer{disabled, nilTracer} {
		if tr.Enabled() {
			t.Error("tracer reports enabled")
		}
		ref := tr.Start(0, 16)
		if ref != NoSpan {
			t.Errorf("Start = %d, want NoSpan", ref)
		}
		tr.MarkNow(ref, MarkDispatch)
		tr.End(ref, verdict.OK)
		tr.SetPending(ref)
		if got := tr.TakePending(); got != NoSpan {
			t.Errorf("TakePending = %d, want NoSpan", got)
		}
		if len(tr.Spans()) != 0 {
			t.Errorf("%d spans recorded while off", len(tr.Spans()))
		}
	}
	if nilTracer.Digest() != 0 {
		t.Error("nil tracer digest nonzero")
	}
}

func TestSpanStageTiling(t *testing.T) {
	full := Span{Start: 100, End: 1000}
	full.Marks = [4]sim.Time{200, 350, 600, 900}
	full.Reached = 0b1111
	st := full.Stages()
	want := [NumStages]sim.Time{100, 150, 250, 300, 100}
	if st != want {
		t.Errorf("full span stages %v, want %v", st, want)
	}

	// A packet shed at admission reaches no mark: its whole life is queue
	// time, the other stages collapse to zero.
	shed := Span{Start: 50, End: 80}
	st = shed.Stages()
	if st[StageQueue] != 30 {
		t.Errorf("shed span queue stage %d, want 30", st[StageQueue])
	}
	var sum sim.Time
	for _, d := range st {
		sum += d
	}
	if sum != shed.Total() {
		t.Errorf("shed span stages sum %d != total %d", sum, shed.Total())
	}

	// Partial progress (dispatched, assigned, then the core died): the
	// unreached boundaries collapse onto End and the tiling still holds,
	// even with marks at cycle 0.
	part := Span{Start: 0, End: 500}
	part.Marks[MarkDispatch] = 0
	part.Marks[MarkAssign] = 120
	part.Reached = 0b0011
	st = part.Stages()
	sum = 0
	for _, d := range st {
		sum += d
	}
	if sum != part.Total() {
		t.Errorf("partial span stages sum %d != total %d", sum, part.Total())
	}
	if st[StageQueue] != 0 || st[StageSched] != 120 || st[StageXbarUp] != 380 {
		t.Errorf("partial span stages %v", st)
	}
}

func TestRecorderRingWrapAndFreeze(t *testing.T) {
	r := NewRecorder(3, 4)
	for i := 0; i < 6; i++ {
		r.Event(sim.Time(i), EvStall, "")
	}
	r.Freeze("crash", 6)
	dumps := r.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("%d dumps, want 1", len(dumps))
	}
	d := dumps[0]
	if d.Shard != 3 || d.Reason != "crash" || d.At != 6 {
		t.Errorf("dump header %+v", d)
	}
	if len(d.Records) != 4 {
		t.Fatalf("%d records, want ring depth 4", len(d.Records))
	}
	for i, rec := range d.Records {
		if rec.At != sim.Time(i+2) {
			t.Errorf("record %d at cycle %d, want %d (oldest-first after wrap)", i, rec.At, i+2)
		}
	}

	// The ring keeps recording after a freeze, and dumps are bounded.
	for i := 0; i < 20; i++ {
		r.Freeze("flood", sim.Time(100+i))
	}
	if n := len(r.Dumps()); n > 9 {
		t.Errorf("%d dumps retained, want bounded", n)
	}

	var nilRec *Recorder
	nilRec.Event(0, EvCrash, "")
	nilRec.RecordSpan(&Span{})
	nilRec.Freeze("x", 0)
	if nilRec.Dumps() != nil {
		t.Error("nil recorder returned dumps")
	}
}

func TestRecorderSpanHookAndFormat(t *testing.T) {
	eng := sim.NewEngine()
	rec := NewRecorder(0, 0)
	tr := NewTracer(eng, TraceConfig{Enabled: true, OnEnd: rec.RecordSpan})
	ref := tr.Start(1, 256)
	tr.MarkNow(ref, MarkDispatch)
	tr.End(ref, verdict.OK)
	rec.Freeze("quarantine", eng.Now())
	dumps := rec.Dumps()
	if len(dumps) != 1 || len(dumps[0].Records) != 1 {
		t.Fatalf("dumps %+v", dumps)
	}
	if dumps[0].Records[0].Kind != EvSpan {
		t.Fatalf("record kind %v, want span", dumps[0].Records[0].Kind)
	}
	text := dumps[0].Format()
	for _, needle := range []string{"postmortem: shard 0", "reason quarantine", "span id=0", "outcome=ok"} {
		if !strings.Contains(text, needle) {
			t.Errorf("dump format missing %q:\n%s", needle, text)
		}
	}
}

func TestSpanExports(t *testing.T) {
	sp := Span{ID: 7, Tag: 2, Class: 1, Bytes: 512, Start: 10, End: 110, Outcome: verdict.OK, HostNs: 42}
	sp.Marks = [4]sim.Time{20, 30, 60, 100}
	sp.Reached = 0b1111

	var csv strings.Builder
	if err := WriteSpansCSV(&csv, []Span{sp}); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), SpanCSVHeader) {
		t.Errorf("CSV missing header:\n%s", csv.String())
	}
	if !strings.Contains(csv.String(), "7,2,1,512,10,110,ok,10,10,30,40,10,42") {
		t.Errorf("CSV row wrong:\n%s", csv.String())
	}

	var jsonl strings.Builder
	if err := WriteSpansJSONL(&jsonl, []Span{sp}); err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{`"id":7`, `"outcome":"ok"`, `"queue":10`, `"core":40`} {
		if !strings.Contains(jsonl.String(), needle) {
			t.Errorf("JSONL missing %q:\n%s", needle, jsonl.String())
		}
	}
}

func TestBuildInfoRegistered(t *testing.T) {
	if VersionLine("mccptest") == "" {
		t.Error("empty version line")
	}
	r := NewRegistry()
	RegisterBuildInfo(r, "mccptest")
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `mccp_build_info{binary="mccptest"`) {
		t.Errorf("build info gauge missing:\n%s", b.String())
	}
}
