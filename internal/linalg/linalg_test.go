package linalg

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func randomMatrix(r *rng.RNG, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.Float64()*2 - 1
	}
	return m
}

func TestGemmKnownAnswer(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := NewMatrix(2, 2)
	Gemm(c, a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if MaxAbsDiff(c, want) != 0 {
		t.Fatalf("C = %v", c.Data)
	}
}

func TestGemmAccumulates(t *testing.T) {
	a := FromRows([][]float64{{1}})
	b := FromRows([][]float64{{1}})
	c := NewMatrix(1, 1)
	c.Set(0, 0, 10)
	Gemm(c, a, b)
	if c.At(0, 0) != 11 {
		t.Fatalf("C = %v, want 11 (accumulating semantics)", c.At(0, 0))
	}
}

func TestGemmMatchesNaiveAcrossShapes(t *testing.T) {
	r := rng.New(1)
	shapes := [][3]int{
		{1, 1, 1}, {2, 3, 4}, {5, 5, 5}, {1, 64, 1}, {65, 64, 63},
		{64, 64, 64}, {70, 129, 33}, {128, 1, 128},
	}
	for _, s := range shapes {
		a := randomMatrix(r, s[0], s[1])
		b := randomMatrix(r, s[1], s[2])
		c1 := NewMatrix(s[0], s[2])
		c2 := NewMatrix(s[0], s[2])
		Gemm(c1, a, b)
		naiveGemm(c2, a, b)
		if d := MaxAbsDiff(c1, c2); d > 1e-12*float64(s[1]) {
			t.Fatalf("shape %v: blocked vs naive diff %g", s, d)
		}
	}
}

func TestGemmShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	Gemm(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(4, 2))
}

// Property: (A*B)ᵀ == Bᵀ*Aᵀ.
func TestGemmTransposeIdentity(t *testing.T) {
	prop := func(seed uint64, mRaw, kRaw, nRaw uint8) bool {
		r := rng.New(seed)
		m, k, n := int(mRaw)%20+1, int(kRaw)%20+1, int(nRaw)%20+1
		a := randomMatrix(r, m, k)
		b := randomMatrix(r, k, n)
		ab := NewMatrix(m, n)
		Gemm(ab, a, b)
		btat := NewMatrix(n, m)
		Gemm(btat, b.Transpose(), a.Transpose())
		return MaxAbsDiff(ab.Transpose(), btat) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Gemm is linear — A*(B1+B2) == A*B1 + A*B2.
func TestGemmLinearity(t *testing.T) {
	prop := func(seed uint64) bool {
		r := rng.New(seed)
		a := randomMatrix(r, 7, 9)
		b1 := randomMatrix(r, 9, 5)
		b2 := randomMatrix(r, 9, 5)
		sum := NewMatrix(9, 5)
		for i := range sum.Data {
			sum.Data[i] = b1.Data[i] + b2.Data[i]
		}
		lhs := NewMatrix(7, 5)
		Gemm(lhs, a, sum)
		rhs := NewMatrix(7, 5)
		Gemm(rhs, a, b1)
		Gemm(rhs, a, b2)
		return MaxAbsDiff(lhs, rhs) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := rng.New(9)
	m := randomMatrix(r, 13, 7)
	if MaxAbsDiff(m, m.Transpose().Transpose()) != 0 {
		t.Fatal("transpose not an involution")
	}
}

func TestGemmFlops(t *testing.T) {
	if GemmFlops(2, 3, 4) != 48 {
		t.Fatalf("GemmFlops = %d", GemmFlops(2, 3, 4))
	}
	// No overflow for OpenAtom-scale products.
	if GemmFlops(100000, 100000, 100000) <= 0 {
		t.Fatal("GemmFlops overflowed")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestFillAndAtSet(t *testing.T) {
	m := NewMatrix(3, 3)
	m.Fill(7)
	m.Set(1, 2, 9)
	if m.At(1, 2) != 9 || m.At(0, 0) != 7 {
		t.Fatal("Fill/Set/At inconsistent")
	}
}

func BenchmarkGemm256(b *testing.B) {
	r := rng.New(4)
	a := randomMatrix(r, 256, 256)
	bb := randomMatrix(r, 256, 256)
	c := NewMatrix(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(c, a, bb)
	}
}
