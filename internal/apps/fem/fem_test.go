package fem

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/netmodel"
)

func TestMeshConstruction(t *testing.T) {
	m := NewRectMesh(3, 2)
	if m.NumVerts != 12 {
		t.Fatalf("verts = %d, want 12", m.NumVerts)
	}
	if len(m.Elems) != 12 {
		t.Fatalf("elems = %d, want 12", len(m.Elems))
	}
	for v, d := range m.Degree {
		if d <= 0 {
			t.Fatalf("vertex %d has degree %d", v, d)
		}
	}
	// Every element's vertices are distinct and in range.
	for e, elem := range m.Elems {
		if elem[0] == elem[1] || elem[1] == elem[2] || elem[0] == elem[2] {
			t.Fatalf("element %d degenerate: %v", e, elem)
		}
		for _, v := range elem {
			if v < 0 || v >= m.NumVerts {
				t.Fatalf("element %d vertex %d out of range", e, v)
			}
		}
	}
}

func TestPartitionCoversEverything(t *testing.T) {
	m := NewRectMesh(8, 6)
	p := PartitionRect(m, 8, 6, 4, 2)
	if p.Parts != 8 {
		t.Fatalf("parts = %d", p.Parts)
	}
	total := 0
	for _, es := range p.PartElems {
		total += len(es)
	}
	if total != len(m.Elems) {
		t.Fatalf("partition covers %d/%d elements", total, len(m.Elems))
	}
	// Shared lists are symmetric.
	for k, verts := range p.Shared {
		rev := p.Shared[[2]int{k[1], k[0]}]
		if len(rev) != len(verts) {
			t.Fatalf("asymmetric shared lists for %v", k)
		}
		for i := range verts {
			if verts[i] != rev[i] {
				t.Fatalf("shared lists differ for %v", k)
			}
		}
	}
	// Interior partitions of a 4x2 grid share corners diagonally: at
	// least one pair must share exactly one vertex.
	corner := false
	for _, verts := range p.Shared {
		if len(verts) == 1 {
			corner = true
		}
	}
	if !corner {
		t.Fatal("no corner-sharing pairs found — partition too coarse for the test")
	}
}

// TestSerialReferenceCloseToNaive: the part-ordered summation only
// reorders additions; the result must agree with the global-order solver
// to rounding.
func TestSerialReferenceCloseToNaive(t *testing.T) {
	m := NewRectMesh(12, 10)
	p := PartitionRect(m, 12, 10, 3, 2)
	a := SerialReference(m, p, 0.1, 6)
	b := NaiveReference(m, 0.1, 6)
	for v := range a {
		if math.Abs(a[v]-b[v]) > 1e-12 {
			t.Fatalf("vertex %d: %g vs %g", v, a[v], b[v])
		}
	}
}

// TestDistributedMatchesSerialExactly: both transports reproduce the
// partition-ordered serial reference bit for bit, and every part holds
// identical shared-vertex values.
func TestDistributedMatchesSerialExactly(t *testing.T) {
	const nx, ny, iters = 12, 10, 4
	m := NewRectMesh(nx, ny)
	for _, mode := range []Mode{Msg, Ckd} {
		res := Run(Config{
			Platform: netmodel.AbeIB,
			Mode:     mode,
			PEs:      4, Virtualization: 2,
			NX: nx, NY: ny,
			Iters: iters, Warmup: 0,
			Validate: true,
		})
		p := PartitionRect(m, nx, ny, res.PartGrid[0], res.PartGrid[1])
		ref := SerialReference(m, p, res.DT, iters+1)
		if len(res.Field()) != len(ref) {
			t.Fatalf("%v: field size %d", mode, len(res.Field()))
		}
		for v := range ref {
			if res.Field()[v] != ref[v] {
				t.Fatalf("%v: vertex %d = %g, reference %g", mode, v, res.Field()[v], ref[v])
			}
		}
		if !res.SharedConsistent {
			t.Fatalf("%v: parts disagree on shared vertices", mode)
		}
	}
}

// TestPropertyRandomMeshesMatch: random mesh shapes, partition grids and
// platforms all reproduce the reference exactly through both transports.
func TestPropertyRandomMeshesMatch(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	prop := func(nxR, nyR, pesR, itersR uint8, onBGP bool) bool {
		nx := int(nxR)%12 + 4
		ny := int(nyR)%12 + 4
		pes := 1 << (int(pesR) % 3) // 1..4
		iters := int(itersR)%3 + 1
		plat := netmodel.AbeIB
		if onBGP {
			plat = netmodel.SurveyorBGP
		}
		cfg := Config{
			Platform: plat,
			PEs:      pes, Virtualization: 2,
			NX: nx, NY: ny,
			Iters: iters, Warmup: 0, Validate: true,
		}
		m := NewRectMesh(nx, ny)
		var want []float64
		for _, mode := range []Mode{Msg, Ckd} {
			cfg.Mode = mode
			res := Run(cfg)
			if !res.SharedConsistent {
				return false
			}
			if want == nil {
				p := PartitionRect(m, nx, ny, res.PartGrid[0], res.PartGrid[1])
				want = SerialReference(m, p, res.DT, iters+1)
			}
			for v := range want {
				if res.Field()[v] != want[v] {
					t.Logf("mode %v %dx%d pes=%d iters=%d: mismatch at %d", mode, nx, ny, pes, iters, v)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestCkdFasterThanMsg: the supplementary claim — CkDirect helps this
// class too (static, iteration-synchronized, irregular exchange).
func TestCkdFasterThanMsg(t *testing.T) {
	for _, plat := range []*netmodel.Platform{netmodel.AbeIB, netmodel.SurveyorBGP} {
		msg, ckd, pct := Improvement(Config{
			Platform: plat,
			PEs:      16, Virtualization: 4,
			NX: 256, NY: 256,
			Iters: 3, Warmup: 1,
		})
		if ckd.IterTime >= msg.IterTime {
			t.Errorf("%s: ckd %v >= msg %v", plat.Name, ckd.IterTime, msg.IterTime)
		}
		if pct <= 0 || pct > 60 {
			t.Errorf("%s: improvement %.1f%% implausible", plat.Name, pct)
		}
	}
}

func TestIrregularChannelSizes(t *testing.T) {
	res := Run(Config{
		Platform: netmodel.AbeIB, Mode: Ckd,
		PEs: 4, Virtualization: 2,
		NX: 16, NY: 16,
		Iters: 1, Warmup: 0, Validate: true,
	})
	if res.Channels == 0 {
		t.Fatal("no channels built")
	}
	// A 2-D block partition must contain both edge-sharing and
	// corner-sharing neighbour pairs, i.e. channels of different sizes.
	m := NewRectMesh(16, 16)
	p := PartitionRect(m, 16, 16, res.PartGrid[0], res.PartGrid[1])
	sizes := map[int]bool{}
	for _, verts := range p.Shared {
		sizes[len(verts)] = true
	}
	if len(sizes) < 2 {
		t.Fatalf("only uniform shared sizes %v — want irregular", sizes)
	}
}

func TestResidualShrinks(t *testing.T) {
	short := Run(Config{
		Platform: netmodel.AbeIB, Mode: Msg, PEs: 2, Virtualization: 2,
		NX: 16, NY: 16, Iters: 1, Warmup: 0, Validate: true,
	})
	long := Run(Config{
		Platform: netmodel.AbeIB, Mode: Msg, PEs: 2, Virtualization: 2,
		NX: 16, NY: 16, Iters: 10, Warmup: 0, Validate: true,
	})
	if long.Residual >= short.Residual {
		t.Fatalf("diffusion residual did not shrink: %g -> %g", short.Residual, long.Residual)
	}
}
