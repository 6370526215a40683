package bench

import (
	"math"
	"testing"
)

func TestCalibrationReportWithinTolerance(t *testing.T) {
	tab := CalibrationReport(Quick)
	if len(tab.Rows) != 9 {
		t.Fatalf("%d rows, want 9 (5 Abe + 4 BG/P systems)", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		for i, dev := range r.Values {
			if math.Abs(dev) > 7 {
				t.Errorf("%s col %s: deviation %.2f%% exceeds 7%%", r.Label, tab.Columns[i], dev)
			}
		}
	}
}

func TestAblationChannelSetupBreakEven(t *testing.T) {
	tab := AblationChannelSetup(Quick)
	for _, plat := range []string{"abe-infiniband", "surveyor-bluegenep"} {
		saving := tab.Row(plat + " saving/put (us)")
		be := tab.Row(plat + " break-even puts")
		if saving == nil || be == nil {
			t.Fatalf("%s rows missing", plat)
		}
		for i := range saving {
			if saving[i] <= 0 {
				t.Errorf("%s col %d: non-positive saving %.3f", plat, i, saving[i])
			}
			if be[i] < 1 {
				t.Errorf("%s col %d: break-even %.0f < 1 (setup cannot be free)", plat, i, be[i])
			}
			// Iterative codes run thousands of iterations; channels must
			// amortize quickly to be worth creating.
			if be[i] > 20 {
				t.Errorf("%s col %d: break-even %.0f puts implausibly high", plat, i, be[i])
			}
		}
	}
}
