package stencil

import (
	"testing"
	"testing/quick"

	"repro/internal/netmodel"
)

// TestPropertyRandomConfigsMatchSerial: for random small domains, PE
// counts, virtualization ratios, iteration counts and platforms, both
// transports reproduce the serial reference field exactly. This is the
// strongest end-to-end correctness statement the stencil can make: every
// decomposition boundary, face orientation, barrier and channel cycle is
// exercised with real data.
func TestPropertyRandomConfigsMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	prop := func(nxR, nyR, nzR, pesR, vrR, itersR uint8, onBGP bool) bool {
		nx := int(nxR)%10 + 4
		ny := int(nyR)%10 + 4
		nz := int(nzR)%10 + 4
		pes := 1 << (int(pesR) % 4) // 1..8
		vr := int(vrR)%3 + 1
		iters := int(itersR)%4 + 1
		plat := netmodel.AbeIB
		if onBGP {
			plat = netmodel.SurveyorBGP
		}
		cfg := Config{
			Platform: plat,
			PEs:      pes, Virtualization: vr,
			NX: nx, NY: ny, NZ: nz,
			Iters: iters, Warmup: 0,
			Validate: true,
		}
		ref := SerialReference(nx, ny, nz, iters+1)
		for _, mode := range []Mode{Msg, Ckd} {
			cfg.Mode = mode
			res := Run(cfg)
			for i := range ref {
				if res.Field()[i] != ref[i] {
					t.Logf("mode %v cfg %dx%dx%d pes=%d vr=%d iters=%d diverged at %d",
						mode, nx, ny, nz, pes, vr, iters, i)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMsgCkdSameTimePerChareCountInvariant: both transports see
// the same chare decomposition for the same config.
func TestPropertyDecompositionAgreement(t *testing.T) {
	prop := func(pesR, vrR uint8) bool {
		pes := 1 << (int(pesR) % 5)
		vr := int(vrR)%4 + 1
		cfg := Config{
			Platform: netmodel.AbeIB,
			PEs:      pes, Virtualization: vr,
			NX: 64, NY: 64, NZ: 32,
			Iters: 1, Warmup: 0,
		}
		cfg.Mode = Msg
		a := Run(cfg)
		cfg.Mode = Ckd
		b := Run(cfg)
		return a.Chares == b.Chares && a.ChareGrid == b.ChareGrid
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
