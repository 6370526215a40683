package fem

import (
	"math"
	"testing"
)

// TestReferenceOracleMatchesSerialReference: the per-shape oracle the net
// validation reads is bit-identical to a fresh SerialReference, a second
// validation of the same shape solves nothing (no allocation at all),
// and a change of shape gets that shape's answer.
func TestReferenceOracleMatchesSerialReference(t *testing.T) {
	for _, tc := range []struct {
		nx, ny, parts, iters int
		dt                   float64
	}{{16, 16, 8, 4, 0.1}, {16, 16, 8, 5, 0.1}, {16, 16, 4, 5, 0.1}, {12, 8, 4, 5, 0.05}} {
		grid := partGrid(tc.parts, tc.nx, tc.ny)
		mesh := NewRectMesh(tc.nx, tc.ny)
		part := PartitionRect(mesh, tc.nx, tc.ny, grid[0], grid[1])
		a := &app{cfg: Config{NX: tc.nx, NY: tc.ny, DT: tc.dt}, mesh: mesh, part: part, grid: grid, totalIters: tc.iters}
		got := a.reference()
		want := SerialReference(mesh, part, tc.dt, tc.iters)
		if len(got) != len(want) {
			t.Fatalf("%+v: %d vertices, want %d", tc, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%+v: vertex %d = %v, SerialReference %v", tc, i, got[i], want[i])
			}
		}
		if allocs := testing.AllocsPerRun(10, func() { a.reference() }); allocs != 0 {
			t.Fatalf("%+v: a repeated validation allocated %v times: it solved again", tc, allocs)
		}
	}
}
