package trace

import (
	"encoding/json"
	"io"
	"sort"

	"repro/internal/sim"
)

// Timeline records per-PE execution spans during a simulation — the
// moral equivalent of Charm++'s Projections logs. The runtime emits one
// span per scheduler dispatch (covering the dispatch overhead plus the
// handler's charged compute). Spans export to the Chrome trace-event
// JSON format, viewable in chrome://tracing or Perfetto.
type Timeline struct {
	spans []Span
	limit int
}

// Span is one closed interval of PE activity.
type Span struct {
	PE    int
	Kind  string // "entry", "detect", ...
	Name  string
	Start sim.Time
	End   sim.Time
}

// NewTimeline creates a recorder holding at most limit spans (0 means a
// generous default); recording stops silently at the cap so long runs
// cannot exhaust memory.
func NewTimeline(limit int) *Timeline {
	if limit <= 0 {
		limit = 1 << 20
	}
	return &Timeline{limit: limit}
}

// AddSpan records an activity interval.
func (tl *Timeline) AddSpan(pe int, kind, name string, start, end sim.Time) {
	if tl == nil || len(tl.spans) >= tl.limit {
		return
	}
	tl.spans = append(tl.spans, Span{PE: pe, Kind: kind, Name: name, Start: start, End: end})
}

// Spans returns the recorded spans (not a copy).
func (tl *Timeline) Spans() []Span { return tl.spans }

// Utilization reports the fraction of [0, upto] that PE pe spent inside
// recorded spans (overlapping spans are merged).
func (tl *Timeline) Utilization(pe int, upto sim.Time) float64 {
	if upto <= 0 {
		return 0
	}
	var ivs []Span
	for _, s := range tl.spans {
		if s.PE == pe && s.Start < upto {
			end := s.End
			if end > upto {
				end = upto
			}
			ivs = append(ivs, Span{Start: s.Start, End: end})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
	var busy, cursor sim.Time
	for _, s := range ivs {
		if s.Start > cursor {
			cursor = s.Start
		}
		if s.End > cursor {
			busy += s.End - cursor
			cursor = s.End
		}
	}
	return float64(busy) / float64(upto)
}

// chromeEvent is one trace-event record.
type chromeEvent struct {
	Name string                 `json:"name"`
	Ph   string                 `json:"ph"`
	TS   float64                `json:"ts"` // microseconds
	Dur  float64                `json:"dur,omitempty"`
	PID  int                    `json:"pid"`
	TID  int                    `json:"tid"`
	Args map[string]interface{} `json:"args,omitempty"`
}

// WriteChromeTrace emits the timeline in Chrome trace-event JSON
// (chrome://tracing, Perfetto, speedscope all read it). PEs map to
// threads of a single process.
func (tl *Timeline) WriteChromeTrace(w io.Writer) error {
	events := make([]chromeEvent, 0, len(tl.spans))
	for _, s := range tl.spans {
		events = append(events, chromeEvent{
			Name: s.Name,
			Ph:   "X",
			TS:   s.Start.Micros(),
			Dur:  (s.End - s.Start).Micros(),
			PID:  0,
			TID:  s.PE,
			Args: map[string]interface{}{"kind": s.Kind},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]interface{}{"traceEvents": events})
}
