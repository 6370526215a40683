package apps

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"

	"repro/internal/sim"
)

// WriteTrace writes the -trace file once the run is over; without
// -trace it does nothing. On sim the file is the run's timeline as
// Chrome trace-event JSON (chrome://tracing, Perfetto), and stdout gets
// per-PE utilization and the heaviest spans. On real, where no virtual
// timeline exists, the file is the run's trace counters as a JSON
// object (mem.* and pool.* are the allocator and pool pressure of
// DESIGN.md §9), and stdout gets them too. A file that cannot be
// written exits 2, like a bad command line.
func (l *Launcher) WriteTrace(counters map[string]int64) {
	if l.traceFile == "" {
		return
	}
	var b []byte
	var err error
	if l.Timeline != nil {
		var buf bytes.Buffer
		err = l.Timeline.WriteChromeTrace(&buf)
		b = buf.Bytes()
	} else {
		b, err = json.MarshalIndent(counters, "", "  ")
	}
	if err == nil {
		err = os.WriteFile(l.traceFile, b, 0o644)
	}
	if err != nil {
		l.Fatal(err)
	}
	if l.Timeline != nil {
		l.summarizeTimeline()
		return
	}
	fmt.Fprintf(l.stdout, "wrote %d counters to %s\n", len(counters), l.traceFile)
	// Sorted by name, each layer's group (charm.*, ckd.*, lb.*, mem.*,
	// pool.*) reads together.
	keys := make([]string, 0, len(counters))
	for k := range counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(l.stdout, "  %-28s %12d\n", k, counters[k])
	}
}

// summarizeTimeline prints the timeline's span count and horizon, every
// PE's utilization over the whole run and the five heaviest spans.
func (l *Launcher) summarizeTimeline() {
	spans := slices.Clone(l.Timeline.Spans()) // sorted below
	var horizon sim.Time
	for _, s := range spans {
		horizon = max(horizon, s.End)
	}
	fmt.Fprintf(l.stdout, "wrote %d spans to %s (open in chrome://tracing or Perfetto), horizon %v\n",
		len(spans), l.traceFile, horizon)
	fmt.Fprintln(l.stdout, "\nPE utilization over the whole run:")
	for pe := 0; pe < l.pes(); pe++ {
		u := l.Timeline.Utilization(pe, horizon)
		fmt.Fprintf(l.stdout, "  PE %3d  %6.1f%%  %s\n", pe, u*100, strings.Repeat("#", int(u*40)))
	}
	sort.Slice(spans, func(i, j int) bool {
		return spans[i].End-spans[i].Start > spans[j].End-spans[j].Start
	})
	fmt.Fprintln(l.stdout, "\nheaviest spans:")
	for _, s := range spans[:min(5, len(spans))] {
		fmt.Fprintf(l.stdout, "  PE %3d  %-10s %v  [%v .. %v]\n", s.PE, s.Name, s.End-s.Start, s.Start, s.End)
	}
}
