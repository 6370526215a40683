package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one interval recorded by the harness around a call into a
// layer (choosing-metrics §4): name, start, end, the span that caused it,
// and the op all spans of one request share. Cross-PE "flight" spans
// (send/put return → peer handler entry) are children of the op and are
// caused by the send or put span that launched them.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"` // enclosing span id, 0 for an op root
	Cause  int    `json:"cause"`  // span id that caused this one, 0 if none
	PE     int    `json:"pe"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark ends. Spans are added
// from one goroutine: concurrent code under test stores raw clock reads
// and the harness assembles spans once it has returned.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// add records a finished span and returns its id.
func (t *tracer) add(name string, op int64, parent, cause, pe int, start, end int64) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, Op: op, Parent: parent, Cause: cause, PE: pe, Start: start, End: end})
	return id
}

// durations returns the duration in nanoseconds of every span of a name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval its direct children cover (overlapping children are merged
// so a covered instant is subtracted once).
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, cur := int64(0), s.Start
		for _, c := range cs {
			lo, hi := c.Start, c.End
			if lo < cur {
				lo = cur
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// budget is where the time of the traced ops went, as means per op in
// microseconds: means add exactly where medians need not, so the named
// spans plus the ops' self time account for the mean op whenever the
// spans do not overlap (with several transfers in flight they do, and the
// parts exceed the whole).
type budget struct {
	op, self float64
	parts    map[string]float64
}

func spanBudget(spans []span) budget {
	b := budget{parts: map[string]float64{}}
	self := selfTimes(spans)
	ops := 0.0
	for _, s := range spans {
		d := float64(s.End-s.Start) / 1e3
		if s.Name == spanOp {
			ops++
			b.op += d
			b.self += float64(self[s.ID]) / 1e3
		} else {
			b.parts[s.Name] += d
		}
	}
	if ops == 0 {
		return b
	}
	b.op /= ops
	b.self /= ops
	for name := range b.parts {
		b.parts[name] /= ops
	}
	return b
}

// writeChromeTrace dumps the spans as Chrome-trace "complete" events
// (chrome://tracing, Perfetto): one row per PE, microsecond timestamps,
// parent/cause/op kept in args.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		// A flight that ended before its cause returned is drawn empty.
		events[i] = event{
			Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(max(s.End-s.Start, 0)) / 1e3,
			Pid: 1, Tid: s.PE,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "cause": s.Cause, "op": int(s.Op)},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
