package bench

import (
	"math"
	"strings"
	"testing"
)

// TestAllExperimentsRunAtQuickScale runs every registered experiment twice:
// each must produce well-formed tables, and — because the registry holds
// model output only — the second run must format byte for byte like the
// first.
func TestAllExperimentsRunAtQuickScale(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables := e.Run(Quick)
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			if first, again := formatAll(tables), formatAll(e.Run(Quick)); first != again {
				t.Fatalf("not deterministic: first run\n%s\nsecond run\n%s", first, again)
			}
			for _, tab := range tables {
				if len(tab.Rows) == 0 || len(tab.Columns) == 0 {
					t.Fatalf("table %s empty", tab.ID)
				}
				out := tab.Format()
				if !strings.Contains(out, tab.ID) {
					t.Fatalf("formatted output missing id:\n%s", out)
				}
				for _, r := range tab.Rows {
					for i, v := range r.Values {
						if math.IsNaN(v) || math.IsInf(v, 0) {
							t.Fatalf("table %s row %q col %d is %v", tab.ID, r.Label, i, v)
						}
					}
				}
			}
		})
	}
}

func formatAll(tables []*Table) string {
	var b strings.Builder
	for _, tab := range tables {
		b.WriteString(tab.Format())
	}
	return b.String()
}

func TestFindAndParseScale(t *testing.T) {
	if _, ok := Find("table1"); !ok {
		t.Fatal("table1 not found")
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("bogus experiment found")
	}
	if s, err := ParseScale("paper"); err != nil || s != Paper {
		t.Fatal("ParseScale(paper) failed")
	}
	if s, err := ParseScale("quick"); err != nil || s != Quick {
		t.Fatal("ParseScale(quick) failed")
	}
	if _, err := ParseScale("banana"); err == nil {
		t.Fatal("ParseScale(banana) accepted")
	}
}

// TestTable1MatchesPaperAtQuickScale: every measured cell within 7% of
// the published value — the harness-level restatement of the pingpong
// integration tests.
func TestTable1MatchesPaperAtQuickScale(t *testing.T) {
	tab := Table1(Quick)
	for label, paper := range PaperTable1 {
		got := tab.Row(label)
		if got == nil {
			t.Fatalf("row %q missing", label)
		}
		for i := range paper {
			if e := math.Abs(got[i]-paper[i]) / paper[i] * 100; e > 7 {
				t.Errorf("%s col %d: %.3f vs paper %.3f (%.1f%%)", label, i, got[i], paper[i], e)
			}
		}
	}
}

func TestTable2MatchesPaperAtQuickScale(t *testing.T) {
	tab := Table2(Quick)
	for label, paper := range PaperTable2 {
		got := tab.Row(label)
		if got == nil {
			t.Fatalf("row %q missing", label)
		}
		for i := range paper {
			if e := math.Abs(got[i]-paper[i]) / paper[i] * 100; e > 7 {
				t.Errorf("%s col %d: %.3f vs paper %.3f (%.1f%%)", label, i, got[i], paper[i], e)
			}
		}
	}
}

// TestFig2ShapeHolds: improvement positive everywhere and growing with
// the processor count, on both machines (quick scale).
func TestFig2ShapeHolds(t *testing.T) {
	for _, tab := range []*Table{Fig2a(Quick), Fig2b(Quick)} {
		imp := tab.Row("improvement %")
		for i, v := range imp {
			if v <= 0 {
				t.Errorf("%s: improvement[%d] = %.2f%% not positive", tab.ID, i, v)
			}
		}
		if imp[len(imp)-1] <= imp[0] {
			t.Errorf("%s: improvement does not grow with scale: %v", tab.ID, imp)
		}
	}
}

// TestFig3ShapeHolds: ckd beats msg at every point and the advantage
// widens with processors.
func TestFig3ShapeHolds(t *testing.T) {
	for _, tab := range Fig3(Quick) {
		msg, ckd := tab.Row("msg (ms)"), tab.Row("ckd (ms)")
		imp := tab.Row("improvement %")
		for i := range msg {
			if ckd[i] >= msg[i] {
				t.Errorf("%s col %d: ckd %.3f >= msg %.3f", tab.ID, i, ckd[i], msg[i])
			}
		}
		if imp[len(imp)-1] <= imp[0] {
			t.Errorf("%s: gap does not widen: %v", tab.ID, imp)
		}
	}
}

// TestFig4Fig5ShapeHolds: ckd wins everywhere; PC-only gains exceed
// full-step gains on the same machine.
func TestFig4Fig5ShapeHolds(t *testing.T) {
	for _, figs := range [][]*Table{Fig4(Quick), Fig5(Quick)} {
		full, pc := figs[0], figs[1]
		for _, tab := range figs {
			msg, ckd := tab.Row("msg (ms)"), tab.Row("ckd (ms)")
			for i := range msg {
				if ckd[i] >= msg[i] {
					t.Errorf("%s col %d: ckd %.3f >= msg %.3f", tab.ID, i, ckd[i], msg[i])
				}
			}
		}
		fi, pi := full.Row("improvement %"), pc.Row("improvement %")
		for i := range fi {
			if fi[i] >= pi[i] {
				t.Errorf("%s/%s col %d: full gain %.2f%% >= pc-only %.2f%%", full.ID, pc.ID, i, fi[i], pi[i])
			}
		}
	}
}

// TestAblationPollingShape: naive slower than messages at the highest
// channel density; windowed faster than messages everywhere.
func TestAblationPollingShape(t *testing.T) {
	tab := AblationPolling(Quick)
	msg := tab.Row("charm messages")
	naive := tab.Row("ckdirect naive Ready")
	opt := tab.Row("ckdirect Mark/PollQ")
	last := len(msg) - 1
	if naive[last] <= msg[last] {
		t.Errorf("naive not pathological at density %v: naive %.3f <= msg %.3f",
			tab.Columns[last], naive[last], msg[last])
	}
	for i := range msg {
		if opt[i] >= msg[i] {
			t.Errorf("windowed ckdirect lost at col %d: %.3f >= %.3f", i, opt[i], msg[i])
		}
		if opt[i] >= naive[i] {
			t.Errorf("windowing no better than naive at col %d", i)
		}
	}
}

// TestAblationCostsConsistent: per-component sums equal the reported
// totals.
func TestAblationCostsConsistent(t *testing.T) {
	tab := AblationCosts()
	total := tab.Row("total one-way")
	parts := []string{
		"send CPU", "wire", "recv CPU", "rendezvous latency",
		"registration CPU", "scheduler", "detect+callback",
	}
	for col := range total {
		sum := 0.0
		for _, p := range parts {
			sum += tab.Row(p)[col]
		}
		if math.Abs(sum-total[col]) > 0.01 {
			t.Errorf("col %d (%s): components sum %.3f != total %.3f", col, tab.Columns[col], sum, total[col])
		}
	}
}

// TestAblationInfoHeaderShape: the Info-header variant wins at small
// sizes (where the lookup dominates) — the paper's §2.2 judgement.
func TestAblationInfoHeaderShape(t *testing.T) {
	tab := AblationInfoHeader(Quick)
	info := tab.Rows[0].Values
	lookup := tab.Rows[1].Values
	if info[0] >= lookup[0] {
		t.Errorf("info-header not faster at 100B: %.3f vs %.3f", info[0], lookup[0])
	}
}
