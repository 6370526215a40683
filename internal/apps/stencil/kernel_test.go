package stencil

import (
	"math"
	"math/rand"
	"testing"
)

// testChare builds a validate-mode chare of extent bx×by×bz whose
// neighbours are the set bits of mask (bit d = direction d), with a
// random field and random arrived faces.
func testChare(bx, by, bz, mask int, rng *rand.Rand) *chare {
	c := &chare{app: &app{cfg: Config{Validate: true}}, bx: bx, by: by, bz: bz}
	for d := 0; d < nDirs; d++ {
		if mask&(1<<d) != 0 {
			c.neighbors[d] = true
			c.nNbr++
		}
	}
	c.allocField()
	for i := range c.cur {
		c.cur[i] = rng.Float64()
	}
	for d := range c.faceVals {
		for i := range c.faceVals[d] {
			c.faceVals[d][i] = rng.Float64()
		}
	}
	return c
}

// perCell is the naive update the z-line kernel replaces: every cell
// picks each neighbour from cur, an arrived face or the Dirichlet zero,
// in the order SerialReference sums them.
func perCell(c *chare) (next []float64, residual float64) {
	bx, by, bz := c.bx, c.by, c.bz
	at := func(x, y, z int) float64 { return c.cur[(x*by+y)*bz+z] }
	ghost := func(d, i int) float64 {
		if !c.neighbors[d] {
			return 0
		}
		return c.faceVals[d][i]
	}
	pick := func(inside bool, x, y, z, d, fi int) float64 {
		if inside {
			return at(x, y, z)
		}
		return ghost(d, fi)
	}
	next = make([]float64, len(c.cur))
	i := 0
	for x := 0; x < bx; x++ {
		for y := 0; y < by; y++ {
			for z := 0; z < bz; z++ {
				v := c.cur[i]
				w := pick(x > 0, x-1, y, z, xm, y*bz+z)
				e := pick(x < bx-1, x+1, y, z, xp, y*bz+z)
				s := pick(y > 0, x, y-1, z, ym, x*bz+z)
				n := pick(y < by-1, x, y+1, z, yp, x*bz+z)
				dn := pick(z > 0, x, y, z-1, zm, x*by+y)
				up := pick(z < bz-1, x, y, z+1, zp, x*by+y)
				nv := (v + w + e + s + n + dn + up) / 7
				next[i] = nv
				residual += math.Abs(nv - v)
				i++
			}
		}
	}
	return next, residual
}

// TestJacobiMatchesPerCell: for all 64 neighbour masks and block extents
// of 1, 2, 3 and 5 in each dimension — 1 and 2 take the peeled line's
// one-cell and two-cell paths — the z-line kernel's next field and
// residual are bit-identical to the per-cell update.
func TestJacobiMatchesPerCell(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	exts := []int{1, 2, 3, 5}
	for _, bx := range exts {
		for _, by := range exts {
			for _, bz := range exts {
				for mask := 0; mask < 1<<nDirs; mask++ {
					c := testChare(bx, by, bz, mask, rng)
					want, wantRes := perCell(c)
					res := c.jacobi()
					if math.Float64bits(res) != math.Float64bits(wantRes) {
						t.Fatalf("%dx%dx%d mask %06b: residual %v, per-cell %v", bx, by, bz, mask, res, wantRes)
					}
					for i := range want {
						if math.Float64bits(c.next[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%dx%dx%d mask %06b: cell %d = %v, per-cell %v", bx, by, bz, mask, i, c.next[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestExtractFaceMatchesDecode: a face extracted on side d and decoded
// by the neighbour holds, at the index that neighbour's kernel reads,
// the boundary cell it stands for.
func TestExtractFaceMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, ext := range [][3]int{{1, 1, 1}, {2, 3, 5}, {5, 2, 1}, {4, 4, 3}} {
		bx, by, bz := ext[0], ext[1], ext[2]
		c := testChare(bx, by, bz, 1<<nDirs-1, rng)
		at := func(x, y, z int) float64 { return c.cur[(x*by+y)*bz+z] }
		for d := 0; d < nDirs; d++ {
			buf := make([]byte, c.faceBytes(d))
			c.extractFace(d, buf)
			got := make([]float64, len(buf)/8)
			decodeFace(got, buf)
			for x := 0; x < bx; x++ {
				for y := 0; y < by; y++ {
					for z := 0; z < bz; z++ {
						var fi int
						switch {
						case d == xp && x == bx-1, d == xm && x == 0:
							fi = y*bz + z
						case d == yp && y == by-1, d == ym && y == 0:
							fi = x*bz + z
						case d == zp && z == bz-1, d == zm && z == 0:
							fi = x*by + y
						default:
							continue
						}
						if got[fi] != at(x, y, z) {
							t.Fatalf("%v side %d: face[%d] = %v, cell (%d,%d,%d) = %v", ext, d, fi, got[fi], x, y, z, at(x, y, z))
						}
					}
				}
			}
		}
	}
}

// TestStencilArrivalComputeZeroAllocs: one chare's iteration of arrivals
// and compute — six face decodes, then the kernel — allocates nothing;
// the decoded ghosts live in buffers the chare owns.
func TestStencilArrivalComputeZeroAllocs(t *testing.T) {
	c := testChare(16, 16, 8, 1<<nDirs-1, rand.New(rand.NewSource(3)))
	var faces [nDirs][]byte
	for d := range faces {
		faces[d] = make([]byte, c.faceBytes(d))
		c.extractFace(d, faces[d])
	}
	allocs := testing.AllocsPerRun(100, func() {
		c.got = 0
		for d := 0; d < nDirs; d++ {
			c.onFace(nil, d, faces[d])
		}
		c.jacobi()
	})
	if allocs != 0 {
		t.Fatalf("arrivals plus compute allocated %v times per iteration, want 0", allocs)
	}
}

// residualSink keeps BenchmarkJacobi's result live.
var residualSink float64

// BenchmarkJacobi times one kernel pass over the benchmark's stencil
// block (16×16×8, all six neighbours present).
func BenchmarkJacobi(b *testing.B) {
	c := testChare(16, 16, 8, 1<<nDirs-1, rand.New(rand.NewSource(4)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		residualSink = c.jacobi()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(c.cur)), "ns/cell")
}
