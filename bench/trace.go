package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval. Trace is the request index, so the
// client-side spans of a request and the replay of its session share it;
// Parent is 0 for a root. Times are nanoseconds since the run started.
type span struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs pay no tracing cost.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// add records a span and returns its id (0 on a nil tracer).
func (t *tracer) add(trace, parent int64, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.base).Nanoseconds(), End: end.Sub(t.base).Nanoseconds()})
	return id
}

// end sets the end of a span added before its end was known.
func (t *tracer) end(id int64, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = at.Sub(t.base).Nanoseconds()
}

// selfTimes returns, per span name, the median self time in ms: a span's
// duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string][]float64)
	for _, s := range spans {
		self := s.End - s.Start - covered(s, children[s.ID])
		byName[s.Name] = append(byName[s.Name], float64(self)/1e6)
	}
	out := make(map[string]float64, len(byName))
	for name, xs := range byName {
		out[name] = percentile(xs, 0.5)
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum int64
	at := parent.Start
	for _, k := range kids {
		start, end := max(k.Start, at), min(k.End, parent.End)
		if end > start {
			sum += end - start
			at = end
		}
	}
	return sum
}

// checkSpans verifies the trace is well formed: every child lies inside
// its parent and shares its parent's trace id.
func checkSpans(spans []span) error {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			return fmt.Errorf("span %d %s: parent %d missing", s.ID, s.Name, s.Parent)
		case p.Trace != s.Trace:
			return fmt.Errorf("span %d %s: trace %d, parent's trace %d", s.ID, s.Name, s.Trace, p.Trace)
		case s.Start < p.Start || s.End > p.End:
			return fmt.Errorf("span %d %s [%d,%d] outside parent %s [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
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
