package machine

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func newTestMachine(pes, coresPerNode int) (*sim.Engine, *Machine) {
	e := sim.NewEngine()
	m := New(e, Config{PEs: pes, CoresPerNode: coresPerNode})
	return e, m
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{PEs: 0, CoresPerNode: 1}).Validate(); err == nil {
		t.Fatal("zero PEs accepted")
	}
	if err := (Config{PEs: 4, CoresPerNode: 0}).Validate(); err == nil {
		t.Fatal("zero CoresPerNode accepted")
	}
	if err := (Config{PEs: 4, CoresPerNode: 2}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestNodeAssignment(t *testing.T) {
	_, m := newTestMachine(8, 4)
	if m.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d, want 2", m.NumNodes())
	}
	for i := 0; i < 8; i++ {
		want := i / 4
		if m.PE(i).Node() != want {
			t.Fatalf("PE %d on node %d, want %d", i, m.PE(i).Node(), want)
		}
	}
}

func TestSameNodeZeroHops(t *testing.T) {
	_, m := newTestMachine(8, 4)
	if h := m.Hops(0, 3); h != 0 {
		t.Fatalf("intra-node hops = %d, want 0", h)
	}
	if h := m.Hops(0, 4); h != 1 {
		t.Fatalf("flat inter-node hops = %d, want 1", h)
	}
}

func TestReserveSerializesWork(t *testing.T) {
	e, m := newTestMachine(1, 1)
	pe := m.PE(0)

	s1, e1 := pe.Reserve(10 * sim.Microsecond)
	if s1 != 0 || e1 != 10*sim.Microsecond {
		t.Fatalf("first reservation [%v,%v]", s1, e1)
	}
	s2, e2 := pe.Reserve(5 * sim.Microsecond)
	if s2 != 10*sim.Microsecond || e2 != 15*sim.Microsecond {
		t.Fatalf("second reservation [%v,%v], want queued after first", s2, e2)
	}
	// Advance virtual time past all reservations; new work starts at Now.
	e.Schedule(100*sim.Microsecond, func() {
		s3, e3 := pe.Reserve(sim.Microsecond)
		if s3 != 100*sim.Microsecond || e3 != 101*sim.Microsecond {
			t.Errorf("idle reservation [%v,%v], want at now", s3, e3)
		}
	})
	e.Run()
	if pe.BusyTotal() != 16*sim.Microsecond {
		t.Fatalf("BusyTotal = %v, want 16us", pe.BusyTotal())
	}
}

func TestReserveZeroCost(t *testing.T) {
	_, m := newTestMachine(1, 1)
	s, end := m.PE(0).Reserve(0)
	if s != end {
		t.Fatalf("zero-cost reservation [%v,%v]", s, end)
	}
}

func TestReserveNegativePanics(t *testing.T) {
	_, m := newTestMachine(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative Reserve did not panic")
		}
	}()
	m.PE(0).Reserve(-1)
}

func TestFreeAt(t *testing.T) {
	_, m := newTestMachine(1, 1)
	pe := m.PE(0)
	if pe.FreeAt() != 0 {
		t.Fatalf("fresh PE FreeAt = %v", pe.FreeAt())
	}
	pe.Reserve(7)
	if pe.FreeAt() != 7 {
		t.Fatalf("FreeAt = %v, want 7", pe.FreeAt())
	}
}

func TestRegionRealAndVirtual(t *testing.T) {
	_, m := newTestMachine(2, 1)
	real := m.AllocRegion(0, 64, false)
	virt := m.AllocRegion(1, 64, true)
	if real.Virtual() || real.Bytes() == nil || real.Size() != 64 {
		t.Fatal("real region malformed")
	}
	if !virt.Virtual() || virt.Bytes() != nil || virt.Size() != 64 {
		t.Fatal("virtual region malformed")
	}
	if real.PE().ID() != 0 || virt.PE().ID() != 1 {
		t.Fatal("region PE assignment wrong")
	}
}

func TestWrapRegionAliases(t *testing.T) {
	_, m := newTestMachine(1, 1)
	buf := []byte{1, 2, 3, 4}
	r := m.WrapRegion(0, buf)
	if r.Size() != 4 {
		t.Fatalf("Size = %d", r.Size())
	}
	r.Bytes()[2] = 99
	if buf[2] != 99 {
		t.Fatal("WrapRegion did not alias caller's slice")
	}
}

// TestHoldFollowsTheElement: a sizes-only region gains zeroed storage of
// its size, keeps it on a second Hold, and drops back to sizes only; a
// wrapped region refuses to drop the slice its caller aliases.
func TestHoldFollowsTheElement(t *testing.T) {
	_, m := newTestMachine(1, 1)
	r := m.AllocRegion(0, 16, true)
	if err := r.Hold(true); err != nil || r.Virtual() || len(r.Bytes()) != 16 || !r.Rebindable() {
		t.Fatalf("Hold(true) of a virtual region: err %v, virtual %v, %d bytes", err, r.Virtual(), len(r.Bytes()))
	}
	r.Bytes()[0] = 7
	if err := r.Hold(true); err != nil || r.Bytes()[0] != 7 {
		t.Fatal("a second Hold(true) replaced the storage")
	}
	if err := r.Hold(false); err != nil || !r.Virtual() || r.Size() != 16 {
		t.Fatalf("Hold(false): err %v, virtual %v, size %d", err, r.Virtual(), r.Size())
	}
	w := m.WrapRegion(0, make([]byte, 8))
	if err := w.Hold(false); err == nil || w.Virtual() {
		t.Fatal("Hold(false) dropped a wrapped region's slice")
	}
}

func TestCopyToRealToReal(t *testing.T) {
	_, m := newTestMachine(2, 1)
	src := m.WrapRegion(0, []byte{5, 6, 7})
	dst := m.AllocRegion(1, 3, false)
	src.CopyTo(dst)
	got := dst.Bytes()
	if got[0] != 5 || got[1] != 6 || got[2] != 7 {
		t.Fatalf("copy result %v", got)
	}
}

func TestCopyToVirtualIsNoop(t *testing.T) {
	_, m := newTestMachine(2, 1)
	src := m.AllocRegion(0, 8, true)
	dst := m.AllocRegion(1, 8, false)
	src.CopyTo(dst) // must not panic
	dst2 := m.AllocRegion(1, 8, true)
	m.WrapRegion(0, []byte{1}).CopyTo(dst2) // must not panic
}

func TestAllocRegionBadPEPanics(t *testing.T) {
	_, m := newTestMachine(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("AllocRegion on PE 5 did not panic")
		}
	}()
	m.AllocRegion(5, 1, false)
}

func TestTreeTopologyHops(t *testing.T) {
	tr := TreeTopology{LeafSize: 4}
	if tr.Hops(0, 3) != 1 {
		t.Fatal("same leaf should be 1 hop")
	}
	if tr.Hops(0, 4) != 3 {
		t.Fatal("cross leaf should be 3 hops")
	}
}

func TestTorusForCoversN(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 64, 100, 512, 1024, 4096} {
		tt := TorusFor(n)
		if tt.X*tt.Y*tt.Z < n {
			t.Fatalf("TorusFor(%d) = %v too small", n, tt)
		}
		// Near-cubic: no dimension more than 4x another (powers of two
		// growth round-robin guarantees this).
		maxd := max3(tt.X, tt.Y, tt.Z)
		mind := min3(tt.X, tt.Y, tt.Z)
		if maxd > 4*mind {
			t.Fatalf("TorusFor(%d) = %v too skewed", n, tt)
		}
	}
}

func TestTorusHopsKnownCases(t *testing.T) {
	tt := TorusTopology{X: 4, Y: 4, Z: 4}
	if h := tt.Hops(0, 1); h != 1 {
		t.Fatalf("adjacent X hops = %d", h)
	}
	if h := tt.Hops(0, 3); h != 1 {
		t.Fatalf("wraparound X hops = %d, want 1", h)
	}
	// (0,0,0) -> (2,2,2) is 2+2+2 = 6 (max distance in a 4-torus).
	if h := tt.Hops(0, 2+2*4+2*16); h != 6 {
		t.Fatalf("diagonal hops = %d, want 6", h)
	}
}

// Property: torus distance is a metric — symmetric, zero iff equal nodes,
// and satisfies the triangle inequality.
func TestTorusMetricProperties(t *testing.T) {
	tt := TorusTopology{X: 4, Y: 2, Z: 8}
	n := tt.X * tt.Y * tt.Z
	prop := func(a, b, c uint16) bool {
		na, nb, nc := int(a)%n, int(b)%n, int(c)%n
		dab := tt.Hops(na, nb)
		dba := tt.Hops(nb, na)
		if dab != dba {
			return false
		}
		if (dab == 0) != (na == nb) {
			return false
		}
		return tt.Hops(na, nc) <= dab+tt.Hops(nb, nc)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func max3(a, b, c int) int {
	if a < b {
		a = b
	}
	if a < c {
		a = c
	}
	return a
}

func min3(a, b, c int) int {
	if a > b {
		a = b
	}
	if a > c {
		a = c
	}
	return a
}
