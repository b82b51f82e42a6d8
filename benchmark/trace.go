package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
)

// span is one timed interval recorded by the benchmark around a call it
// makes into a layer, or between a stamp it put in a payload and the
// receipt it observed. Spans of one operation share Op; Parent is the ID of
// the span that caused this one (0 for an operation's root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Op     uint64 `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// traceSample is how many message operations pass per traced one: at tens
// of thousands of messages a second, tracing each would measure the tracer.
// Rekey cycles are all traced.
const traceSample = 64

// maxSpans bounds the recorder's memory and the trace file.
const maxSpans = 400_000

// tracer keeps spans in memory and writes them out when the run ends. A nil
// tracer records nothing, which is how untraced runs work.
type tracer struct {
	mu    sync.Mutex
	spans []span
	roots map[uint64]int32 // op -> root span ID
}

func newTracer() *tracer { return &tracer{roots: make(map[uint64]int32)} }

// root opens an operation's root span; its end is the end of its last
// child, fixed up when the trace is closed.
func (t *tracer) root(name string, op uint64, start int64) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		return 0
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Name: name, Op: op, Start: start, End: start})
	t.roots[op] = id
	return id
}

// add records a finished span under parent, and returns its ID so callers
// can nest further spans beneath it.
func (t *tracer) add(parent int32, name string, op uint64, start, end int64) int32 {
	if t == nil || parent == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		return 0
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op, Start: start, End: end})
	return id
}

// addToOp records a finished span under the root of op, for goroutines
// (the receivers) that know the operation but not its root span.
func (t *tracer) addToOp(name string, op uint64, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	parent := t.roots[op]
	t.mu.Unlock()
	t.add(parent, name, op, start, end)
}

// close stretches every root over its children and returns the spans.
func (t *tracer) close() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		for p := s.Parent; p != 0; p = t.spans[p-1].Parent {
			if s.End > t.spans[p-1].End {
				t.spans[p-1].End = s.End
			}
		}
	}
	return t.spans
}

// selfTimes returns each span's self time: its duration minus the part of
// it that its direct children cover (overlapping children count once).
func selfTimes(spans []span) map[int32]int64 {
	children := make(map[int32][][2]int64)
	byID := make(map[int32]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int32]int64, len(spans))
	for id, s := range byID {
		kids := children[id]
		slices.SortFunc(kids, func(a, b [2]int64) int { return int(a[0] - b[0]) })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k[0], reach), min(k[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[id] = (s.End - s.Start) - covered
	}
	return self
}

// selfByName averages self time (microseconds) over spans of one name.
func selfByName(spans []span) map[string]float64 {
	sum := map[string]float64{}
	count := map[string]float64{}
	self := selfTimes(spans)
	for _, s := range spans {
		sum[s.Name] += float64(self[s.ID]) / 1000
		count[s.Name]++
	}
	for name := range sum {
		sum[name] /= count[name]
	}
	return sum
}

// traceFile is what -trace leaves in benchmark/out/<workload>.trace.json.
type traceFile struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	SampleEvery int                `json:"message_ops_per_traced_op"`
	SelfUs      map[string]float64 `json:"mean_self_us_by_span_name"`
	Spans       []span             `json:"spans"`
}

func writeTrace(dir string, f traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, f.Workload+".trace.json")
	data, err := json.Marshal(f)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
