package serve

import (
	"sync"
	"testing"

	"repro/internal/charm"
	"repro/internal/netmodel"
	"repro/internal/netrt"
	"repro/internal/netrt/nettest"
)

// TestAnswerPins executes one validated stencil, matmul and fem job on
// an in-process 2-rank world, in both modes, and pins every rank's
// checksum to a golden digest. A checksum covers the rank's answer as
// the app hands it out (its hosted cells, NaN elsewhere), so a change to
// how a net rank stores or gathers its share cannot move an answer
// without failing here.
func TestAnswerPins(t *testing.T) {
	pins := []struct {
		spec Spec
		want [2]string // by rank
	}{
		{Spec{Kind: "stencil", Validate: true}, [2]string{"f4289b7b8e60850d", "24ad33962a2ed66a"}},
		{Spec{Kind: "matmul", Validate: true}, [2]string{"efb7dd239b131542", "20ffbcf8a7f91937"}},
		{Spec{Kind: "fem", Validate: true}, [2]string{"1c6271cadca6c914", "742b5f101cb7ccf2"}},
	}
	nodes, err := netrt.StartLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer nettest.CloseAll(t, nodes)
	env := func(rank int) Env {
		return Env{Backend: charm.NetBackend, Net: nodes[rank], Platform: netmodel.AbeIB}
	}
	for _, p := range pins {
		for _, mode := range []string{"msg", "ckd"} {
			s := p.spec
			s.Mode = mode
			if err := Normalize(env(0), &s); err != nil {
				t.Fatalf("%s/%s: %v", s.Kind, mode, err)
			}
			var out [2]Outcome
			var wg sync.WaitGroup
			for r := range nodes {
				wg.Add(1)
				go func() {
					defer wg.Done()
					out[r], _ = Execute(env(r), s)
				}()
			}
			wg.Wait()
			for r, o := range out {
				if !o.OK {
					t.Fatalf("%s/%s rank %d: %v", s.Kind, mode, r, o.Errors)
				}
				if o.Checksum != p.want[r] {
					t.Errorf("%s/%s rank %d: checksum %s, pinned %s", s.Kind, mode, r, o.Checksum, p.want[r])
				}
			}
		}
	}
}
