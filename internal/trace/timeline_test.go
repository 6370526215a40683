package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/sim"
)

func TestTimelineSpansAndMarkers(t *testing.T) {
	tl := NewTimeline(0)
	tl.AddSpan(0, "entry", "work", 10, 20)
	tl.AddSpan(1, "detect", "poll", 5, 6)
	if len(tl.Spans()) != 2 {
		t.Fatalf("spans %d", len(tl.Spans()))
	}
}

func TestTimelineCap(t *testing.T) {
	tl := NewTimeline(3)
	for i := 0; i < 10; i++ {
		tl.AddSpan(0, "e", "w", sim.Time(i), sim.Time(i+1))
	}
	if len(tl.Spans()) != 3 {
		t.Fatalf("cap not enforced: %d", len(tl.Spans()))
	}
}

func TestNilTimelineSafe(t *testing.T) {
	var tl *Timeline
	tl.AddSpan(0, "e", "w", 0, 1)
}

func TestUtilizationMergesOverlaps(t *testing.T) {
	tl := NewTimeline(0)
	tl.AddSpan(0, "e", "a", 0, 50)
	tl.AddSpan(0, "e", "b", 25, 75) // overlaps a
	tl.AddSpan(0, "e", "c", 90, 100)
	tl.AddSpan(1, "e", "other-pe", 0, 100)
	got := tl.Utilization(0, 100)
	want := 0.85 // [0,75] + [90,100]
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("utilization = %v, want %v", got, want)
	}
	if u := tl.Utilization(2, 100); u != 0 {
		t.Fatalf("idle PE utilization = %v", u)
	}
}

func TestUtilizationClampsToWindow(t *testing.T) {
	tl := NewTimeline(0)
	tl.AddSpan(0, "e", "a", 50, 500)
	if got := tl.Utilization(0, 100); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("clamped utilization = %v, want 0.5", got)
	}
}

func TestChromeTraceOutput(t *testing.T) {
	tl := NewTimeline(0)
	tl.AddSpan(3, "entry", "jacobi", 1000, 3500)
	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 1 {
		t.Fatalf("%d events", len(doc.TraceEvents))
	}
	span := doc.TraceEvents[0]
	if span.Name != "jacobi" || span.Ph != "X" || span.TS != 1.0 || span.Dur != 2.5 || span.TID != 3 {
		t.Fatalf("span event %+v", span)
	}
}
