package matmul

import (
	"math"
	"testing"

	"repro/internal/linalg"
)

// TestReferenceOracleMatchesGemm: the per-order oracle both validations
// read is bit-identical to a fresh serial Gemm of the seeded A and B, a
// second validation of the same order multiplies nothing (no allocation
// at all), and a change of order gets that order's product.
func TestReferenceOracleMatchesGemm(t *testing.T) {
	for _, n := range []int{16, 24, 16} {
		am, bm := linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				am.Set(i, j, seedA(i, j))
				bm.Set(i, j, seedB(i, j))
			}
		}
		want := linalg.NewMatrix(n, n)
		linalg.Gemm(want, am, bm)
		got := reference(n)
		if len(got) != len(want.Data) {
			t.Fatalf("n=%d: %d values, want %d", n, len(got), len(want.Data))
		}
		for i := range want.Data {
			if math.Float64bits(got[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("n=%d: C[%d] = %v, Gemm %v", n, i, got[i], want.Data[i])
			}
		}
		if allocs := testing.AllocsPerRun(10, func() { reference(n) }); allocs != 0 {
			t.Fatalf("n=%d: a repeated validation allocated %v times: it multiplied again", n, allocs)
		}
	}
}
