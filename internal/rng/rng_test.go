package rng

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

// Reference values for splitmix64 with seed 1234567, from the public
// reference implementation (Vigna).
func TestSplitmix64KnownAnswers(t *testing.T) {
	r := New(1234567)
	want := []uint64{
		6457827717110365317,
		3203168211198807973,
		9817491932198370423,
		4593380528125082431,
		16408922859458223821,
	}
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Fatalf("value %d = %d, want %d", i, got, w)
		}
	}
}

func TestDeterministicStreams(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between different seeds", same)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(7)
	for _, n := range []int{1, 2, 3, 10, 1000, 1 << 30} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	r := New(1)
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Intn(%d) did not panic", n)
				}
			}()
			r.Intn(n)
		}()
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(99)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	for i, c := range counts {
		// Expected 10000 per bucket; allow 5% deviation.
		if c < 9500 || c > 10500 {
			t.Fatalf("bucket %d has %d draws, expected ~10000", i, c)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	mean := sum / draws
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean = %v, want ~0.5", mean)
	}
}

func TestFillDeterministicAndCoversAllLengths(t *testing.T) {
	for n := 0; n <= 33; n++ {
		a := make([]byte, n)
		b := make([]byte, n)
		New(uint64(n)).Fill(a)
		New(uint64(n)).Fill(b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("len %d: byte %d differs", n, i)
			}
		}
	}
}

func TestFillNotAllZero(t *testing.T) {
	buf := make([]byte, 64)
	New(11).Fill(buf)
	zero := true
	for _, b := range buf {
		if b != 0 {
			zero = false
		}
	}
	if zero {
		t.Fatal("Fill produced all zeros")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(77)
	child := parent.Split()
	// The child must not replay the parent's remaining stream.
	p := make([]uint64, 50)
	c := make([]uint64, 50)
	for i := range p {
		p[i] = parent.Uint64()
		c[i] = child.Uint64()
	}
	same := 0
	for i := range p {
		if p[i] == c[i] {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between parent and child streams", same)
	}
}

// TestMul64Property cross-checks the portable 128-bit multiply against
// math/bits over random inputs.
func TestMul64Property(t *testing.T) {
	prop := func(a, b uint64) bool {
		hi, lo := mul64(a, b)
		whi, wlo := bits.Mul64(a, b)
		return hi == whi && lo == wlo
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}
