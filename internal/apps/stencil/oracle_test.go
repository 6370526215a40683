package stencil

import (
	"math"
	"testing"
)

// TestReferenceOracleMatchesSerialReference: the per-shape oracle the net
// validation reads is bit-identical to a fresh SerialReference, a second
// validation of the same shape solves nothing (no allocation at all),
// and a change of shape gets that shape's answer.
func TestReferenceOracleMatchesSerialReference(t *testing.T) {
	for _, sh := range [][4]int{{16, 16, 8, 4}, {16, 16, 8, 5}, {8, 12, 6, 3}} {
		got := reference(sh[0], sh[1], sh[2], sh[3])
		want := SerialReference(sh[0], sh[1], sh[2], sh[3])
		if len(got) != len(want) {
			t.Fatalf("shape %v: %d cells, want %d", sh, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("shape %v: cell %d = %v, SerialReference %v", sh, i, got[i], want[i])
			}
		}
		if allocs := testing.AllocsPerRun(10, func() { reference(sh[0], sh[1], sh[2], sh[3]) }); allocs != 0 {
			t.Fatalf("shape %v: a repeated validation allocated %v times: it solved again", sh, allocs)
		}
	}
}
