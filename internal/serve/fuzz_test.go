package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/charm"
)

// FuzzJobSpec drives arbitrary bytes through an FJob payload's two
// readers: the decode a follower applies before it runs a job (Follow:
// unmarshal, then PrepareKill) and the admission rank 0 applies to a
// submitted spec (Normalize, as Submit calls it), under both live
// backends a daemon can boot. Neither may panic; a spec Normalize accepts
// must stay under the daemon's size ceiling, and must be canonical:
// re-marshalled, decoded and normalized again it is the same spec, byte
// for byte — the spec every rank executes is the spec rank 0 admitted.
func FuzzJobSpec(f *testing.F) {
	for _, s := range []string{
		`{"kind":"stencil","validate":true}`,
		`{"kind":"stencil","mode":"msg","pes":4,"nx":16,"ny":16,"nz":8,"vr":2,"iters":3,"warmup":1}`,
		`{"kind":"stencil","lb_every":2,"skew":200}`,
		`{"kind":"pingpong","size":1024,"iters":10}`,
		`{"kind":"pingpong","warmup":2}`,
		`{"kind":"matmul","n":64,"pes":4,"validate":true}`,
		`{"kind":"fem","nx":16,"ny":16,"kill":"1@3"}`,
		// Edges whose product wraps past the cell ceiling to zero.
		`{"kind":"stencil","nx":4294967296,"ny":4294967296,"nz":1}`,
		`{"kind":"fem","nx":4294967296,"ny":4294967296}`,
		`{"kind":"matmul","n":-1}`,
		`{"kind":"nope"}`,
		`{}`,
		`null`,
	} {
		f.Add([]byte(s))
	}
	envs := []Env{{Backend: charm.RealBackend}, {Backend: charm.NetBackend}}
	f.Fuzz(func(t *testing.T, b []byte) {
		var spec Spec
		if err := json.Unmarshal(b, &spec); err != nil {
			return
		}
		for _, env := range envs {
			follower := spec
			follower.PrepareKill(env)
			admitted := spec
			if err := Normalize(env, &admitted); err != nil {
				continue
			}
			if grid := admitted.Kind == "stencil" || admitted.Kind == "fem"; grid &&
				float64(admitted.NX)*float64(admitted.NY)*float64(max(admitted.NZ, 1)) > maxCells {
				t.Fatalf("%v: admitted a %dx%dx%d domain, over the %d-cell ceiling",
					env.Backend, admitted.NX, admitted.NY, admitted.NZ, maxCells)
			}
			canon, err := json.Marshal(admitted)
			if err != nil {
				t.Fatalf("%v: admitted spec %+v does not marshal: %v", env.Backend, admitted, err)
			}
			var again Spec
			if err := json.Unmarshal(canon, &again); err != nil {
				t.Fatalf("%v: admitted spec %s does not decode: %v", env.Backend, canon, err)
			}
			if err := Normalize(env, &again); err != nil {
				t.Fatalf("%v: admitted spec %s is refused the second time: %v", env.Backend, canon, err)
			}
			if re, _ := json.Marshal(again); !bytes.Equal(re, canon) {
				t.Fatalf("%v: admitted spec %s normalizes again to %s", env.Backend, canon, re)
			}
		}
	})
}
