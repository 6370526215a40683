// Package nettest holds the teardown every test that boots a net world
// shares.
package nettest

import (
	"testing"

	"repro/internal/netrt"
)

// CloseAll tears a test world down (nil slots — a killed rank not yet
// respawned — are skipped) and asserts the termination protocol's safety
// property on the way out: no app frame reached a run after the decision
// to halt it. The property is cumulative over the node's life, so one
// check at teardown covers every run the test made.
func CloseAll(t testing.TB, nodes []*netrt.Node) {
	t.Helper()
	for _, n := range nodes {
		if n == nil {
			continue
		}
		if late := n.Stats().FramesAfterHalt; late != 0 {
			t.Errorf("rank %d: %d app frames arrived after the termination decision (net.frames_after_halt)", n.Rank(), late)
		}
		n.Close()
	}
}
