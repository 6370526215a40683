package main

import "testing"

// -smoke: every workload, one tiny block per arm, both passes, on the live
// backends. It checks wiring and correctness (stamps, block compares,
// stencil Validate, serve checksums), never timings.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the net worlds of all seven workloads")
	}
	quiet(t)
	defer func(dir string) { traceDir = dir }(traceDir)
	traceDir = t.TempDir()
	micro := runLayerBenches(7, true)
	for name := range layerNames(false) {
		if _, ok := micro[name]; !ok {
			t.Errorf("the layer microbenchmarks do not emit %s", name)
		}
	}
	if len(micro) != len(layerNames(false)) {
		t.Errorf("the layer microbenchmarks emit %d metrics, %d are registered", len(micro), len(layerNames(false)))
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			e2e, err := measureE2E(w.Name, 7, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			layers, err := measureLayers(w.Name, 7, 0, true, micro)
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range []wlResult{e2e, layers} {
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v, %d failed of %d attempted", res.Correct, res.Failed, res.Attempted)
				}
			}
			if len(layers.Metrics) != len(perLayer) {
				t.Errorf("traced run emits %d metrics, %d are registered", len(layers.Metrics), len(perLayer))
			}
		})
	}
}
