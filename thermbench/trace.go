package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// outside the program. Times are nanoseconds since the tracer's epoch;
// Parent is the enclosing span's ID (-1 for a root) and Req groups the
// spans of one operation (a batch cell or a served request).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, so the untraced path pays one nil check per
// call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a completed span and returns its ID.
func (t *tracer) add(req int64, parent int32, name, layer string, start, end time.Time) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name, Layer: layer,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// reserve allocates a root span's ID before its children are recorded;
// finish fills it in once the operation ends.
func (t *tracer) reserve(req int64, name, layer string) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: -1, Req: req, Name: name, Layer: layer})
	return id
}

func (t *tracer) finish(id int32, start, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].Start = start.Sub(t.epoch).Nanoseconds()
	t.spans[id].End = end.Sub(t.epoch).Nanoseconds()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes the spans one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes splits every root operation's spans into per-layer self
// time — a span's duration minus its children's — and returns, per
// layer, the mean self time per operation in milliseconds. Roots are
// the operations themselves; the time they hold outside any child is
// glue no layer owns and lands in trace.residual_ms.
func selfTimes(spans []span) map[string]float64 {
	childSum := make(map[int32]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childSum[s.Parent] += s.dur()
		}
	}
	perLayer := map[string]float64{}
	roots := 0
	for _, s := range spans {
		if s.Parent < 0 {
			roots++
			continue
		}
		perLayer[s.Layer] += (s.dur() - childSum[s.ID]).Seconds() * 1e3
	}
	for k := range perLayer {
		perLayer[k] /= float64(max(roots, 1))
	}
	return perLayer
}
