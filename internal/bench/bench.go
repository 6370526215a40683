// Package bench is the experiment harness: one driver per table and
// figure of the paper's evaluation, each returning a Table whose rows and
// columns mirror the published artifact, plus the ablations called out in
// DESIGN.md.
//
// Every driver takes a Scale: Quick shrinks sweeps so the whole suite
// runs in seconds (used by tests and `go test -bench`), Paper runs the
// full published configuration (used by cmd/ckbench).
//
// Every experiment is model output: it runs in virtual time, so the same
// Scale yields byte-identical tables. Wall-clock measurements of the live
// backends belong to benchmark/, not here.
package bench

import (
	"fmt"
	"strings"
)

// Scale selects experiment size.
type Scale int

// Scales.
const (
	Quick Scale = iota
	Paper
)

// ParseScale converts a CLI string.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "quick":
		return Quick, nil
	case "paper", "full":
		return Paper, nil
	}
	return Quick, fmt.Errorf("bench: unknown scale %q (want quick|paper)", s)
}

// Row is one labelled series of values.
type Row struct {
	Label  string
	Values []float64
}

// Table is a formatted experiment result.
type Table struct {
	ID      string
	Title   string
	ColHead string   // meaning of the columns, e.g. "Message Size (B)"
	Columns []string // column labels
	Unit    string   // unit of the values, e.g. "us RTT"
	Rows    []Row
	Notes   []string
}

// AddRow appends a series.
func (t *Table) AddRow(label string, values ...float64) {
	t.Rows = append(t.Rows, Row{Label: label, Values: values})
}

// Row returns the values for a label (nil if absent).
func (t *Table) Row(label string) []float64 {
	for _, r := range t.Rows {
		if r.Label == label {
			return r.Values
		}
	}
	return nil
}

// CSV renders the table as comma-separated values (one header row, one
// row per series) for plotting tools.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(csvEscape(t.ColHead))
	for _, c := range t.Columns {
		b.WriteByte(',')
		b.WriteString(csvEscape(c))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(csvEscape(r.Label))
		for i := range t.Columns {
			b.WriteByte(',')
			if i < len(r.Values) {
				fmt.Fprintf(&b, "%g", r.Values[i])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// Format renders the table as aligned text, matching the orientation of
// the paper's tables (sizes across, systems down).
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s", t.ID, t.Title)
	if t.Unit != "" {
		fmt.Fprintf(&b, " [%s]", t.Unit)
	}
	b.WriteByte('\n')

	width := 12
	label := len(t.ColHead)
	for _, r := range t.Rows {
		if len(r.Label) > label {
			label = len(r.Label)
		}
	}
	fmt.Fprintf(&b, "%-*s", label+2, t.ColHead)
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%*s", width, c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", label+2, r.Label)
		for i := range t.Columns {
			if i < len(r.Values) {
				fmt.Fprintf(&b, "%*.3f", width, r.Values[i])
			} else {
				fmt.Fprintf(&b, "%*s", width, "-")
			}
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// Experiment is a named, runnable experiment.
type Experiment struct {
	ID          string
	Description string
	Run         func(scale Scale) []*Table
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Pingpong RTT on Abe/Infiniband (paper Table 1)", func(s Scale) []*Table { return []*Table{Table1(s)} }},
		{"table2", "Pingpong RTT on Blue Gene/P (paper Table 2)", func(s Scale) []*Table { return []*Table{Table2(s)} }},
		{"fig2a", "Stencil improvement on Infiniband (paper Fig 2a)", func(s Scale) []*Table { return []*Table{Fig2a(s)} }},
		{"fig2b", "Stencil improvement on Blue Gene/P (paper Fig 2b)", func(s Scale) []*Table { return []*Table{Fig2b(s)} }},
		{"fig3", "Matmul execution time, both machines (paper Fig 3)", func(s Scale) []*Table { return Fig3(s) }},
		{"fig4", "OpenAtom time per step on Abe (paper Fig 4a/4b)", func(s Scale) []*Table { return Fig4(s) }},
		{"fig5", "OpenAtom time per step on BG/P (paper Fig 5a/5b)", func(s Scale) []*Table { return Fig5(s) }},
		{"ablation-polling", "Polling-window ablation (paper §5.2)", func(s Scale) []*Table { return []*Table{AblationPolling(s)} }},
		{"ablation-costs", "Protocol cost decomposition of Table 1 (§3 analysis)", func(s Scale) []*Table { return []*Table{AblationCosts()} }},
		{"ablation-info", "Info-header vs lookup-table context on BG/P (§2.2)", func(s Scale) []*Table { return []*Table{AblationInfoHeader(s)} }},
		{"ablation-putget", "Put vs get latency (§2 design argument)", func(s Scale) []*Table { return []*Table{AblationPutGet(s)} }},
		{"ablation-setup", "Channel setup amortization (persistence trade-off)", func(s Scale) []*Table { return []*Table{AblationChannelSetup(s)} }},
		{"calibration", "Per-cell deviation audit vs the published tables", func(s Scale) []*Table { return []*Table{CalibrationReport(s)} }},
		{"summary", "Reproduction scorecard: headline claims pass/fail", func(s Scale) []*Table { return []*Table{Summary(s)} }},
		{"fem", "Supplementary: unstructured-mesh FEM from the paper's §1 class", func(s Scale) []*Table { return []*Table{FemFigure(s)} }},
		{"faults", "Supplementary: recovery cost under transfer loss", func(s Scale) []*Table { return []*Table{FaultFigure(s)} }},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
