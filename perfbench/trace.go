package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Spans of one request share req; parent is the id of the span that
// caused this one (0 for a root).
type span struct {
	name       string
	id, parent uint32
	req        uint64
	start, end int64 // ns since the tracer started
}

// maxSpans bounds the in-memory span buffer; spans past it are counted
// as dropped, not recorded.
const maxSpans = 1 << 18

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op and costs one nil check.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	nextID  uint32
	dropped uint64
	// every samples requests: only requests whose sequence number is a
	// multiple of every are traced, keeping the buffer bounded on
	// workloads with hundreds of thousands of requests.
	every uint64
}

func newTracer(every uint64) *tracer {
	if every == 0 {
		every = 1
	}
	return &tracer{t0: time.Now(), every: every}
}

// sampled reports whether request seq is traced.
func (t *tracer) sampled(seq uint64) bool { return t != nil && seq%t.every == 0 }

// now is the tracer clock (0 when untraced).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// at converts a wall-clock instant to the tracer clock.
func (t *tracer) at(x time.Time) int64 {
	if t == nil {
		return 0
	}
	return int64(x.Sub(t.t0))
}

// newID reserves a span id, so children can name a parent that has not
// ended yet.
func (t *tracer) newID() uint32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return id
}

// record stores a finished span; id 0 reserves a fresh one. It returns
// the span's id.
func (t *tracer) record(name string, id, parent uint32, req uint64, start, end int64) uint32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		t.nextID++
		id = t.nextID
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return id
	}
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, req: req, start: start, end: end})
	return id
}

// writeJSONL writes one JSON object per span.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, `{"name":%q,"id":%d,"parent":%d,"req":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			s.name, s.id, s.parent, s.req, s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// count is the number of spans recorded.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}
