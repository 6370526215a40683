package ckdirect

import (
	"errors"
	"testing"

	"repro/internal/charm"
	"repro/internal/netmodel"
	"repro/internal/netrt"
	"repro/internal/netrt/nettest"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestExtensionsRejectedOnLiveBackends: creating a get channel on the
// real or the net backend fails with an error that wraps ErrSimOnly and
// names the extension.
func TestExtensionsRejectedOnLiveBackends(t *testing.T) {
	backends := []struct {
		name string
		opts func(t *testing.T) charm.Options
	}{
		{"real", func(*testing.T) charm.Options { return charm.Options{Backend: charm.RealBackend} }},
		{"net", func(t *testing.T) charm.Options {
			nodes, err := netrt.StartLocal(1)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { nettest.CloseAll(t, nodes) })
			return charm.Options{Backend: charm.NetBackend, Net: nodes[0]}
		}},
	}
	extensions := []struct {
		name   string
		create func(m *Manager) error
	}{
		{"get", func(m *Manager) error {
			mach := m.rts.Machine()
			_, err := m.CreateGetHandle(0, mach.AllocRegion(0, 64, false), 1, mach.AllocRegion(1, 64, false), func(*charm.Ctx) {})
			return err
		}},
	}
	for _, b := range backends {
		for _, ext := range extensions {
			t.Run(b.name+"/"+ext.name, func(t *testing.T) {
				eng := sim.NewEngine()
				mach, net := netmodel.AbeIB.BuildMachine(eng, 2)
				rts := charm.NewRTS(eng, mach, net, netmodel.AbeIB, trace.NewRecorder(), b.opts(t))
				err := ext.create(NewManager(rts))
				if !errors.Is(err, ErrSimOnly) {
					t.Fatalf("got %v, want an error wrapping ErrSimOnly", err)
				}
			})
		}
	}
}
