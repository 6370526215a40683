package main

import (
	"fmt"
	"sync"

	"repro/internal/charm"
	"repro/internal/machine"
	"repro/internal/netmodel"
	"repro/internal/netrt"
	"repro/internal/sim"
	"repro/internal/trace"
)

// backendKind is the live backend a workload runs on.
type backendKind int

const (
	onReal backendKind = iota // realrt, one address space
	onShm                     // netrt, 2 ranks over the memfd ring/arena
	onTCP                     // netrt, 2 ranks over loopback TCP (ShmOff)
)

func (k backendKind) String() string { return [...]string{"real", "net/shm", "net/tcp"}[k] }

// numPEs is fixed by the issue: two PEs, one per rank on net.
const numPEs = 2

// platform prices nothing on the live backends (costs are wall-clock);
// it only shapes the machine. One core per node puts PE 0 and PE 1 on
// different nodes, as the pingpong app does.
var platform = func() *netmodel.Platform {
	p := *netmodel.AbeIB
	p.Name = "bench-host"
	p.CoresPerNode = 1
	return &p
}()

// world is a booted backend: nothing for real, a 2-rank in-process mesh
// for net (identical wire stack to separate OS processes, minus exec).
type world struct {
	kind  backendKind
	nodes []*netrt.Node
}

func bootWorld(kind backendKind, seed uint64) (*world, error) {
	w := &world{kind: kind}
	if kind == onReal {
		return w, nil
	}
	nodes, err := netrt.StartLocalConfig(numPEs, netrt.Config{ShmOff: kind == onTCP, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("boot %v world: %w", kind, err)
	}
	w.nodes = nodes
	return w, nil
}

func (w *world) close() {
	for _, n := range w.nodes {
		_ = n.Close() // its error is a self-spawned child's exit status; these worlds are in-process
	}
}

// netCounts are the netrt scale counters the per-layer metrics use,
// summed over the world's nodes (zero on real).
type netCounts struct {
	coalesced, batchGrows, eagerShrinks, probeRounds int64
}

func (w *world) netCounts() netCounts {
	var c netCounts
	for _, n := range w.nodes {
		s := n.Stats()
		c.coalesced += s.ShmFramesCoalesced
		c.batchGrows += s.BatchGrows
		c.eagerShrinks += s.EagerShrinks
		c.probeRounds += s.TermProbeRounds
	}
	return c
}

func (a netCounts) minus(b netCounts) netCounts {
	return netCounts{a.coalesced - b.coalesced, a.batchGrows - b.batchGrows,
		a.eagerShrinks - b.eagerShrinks, a.probeRounds - b.probeRounds}
}

// rankEnv is what one rank's SPMD set-up sees: its own runtime and
// machine. On real there is a single rank hosting both PEs.
type rankEnv struct {
	rts  *charm.RTS
	mach *machine.Machine
}

// runSPMD is one run generation: a fresh RTS per rank, build applied to
// each (identical registration order everywhere — arrays, entry methods
// and handles carry ordinal identities across ranks), then every rank's
// Run concurrently until distributed termination. It returns the ranks'
// trace counters summed and their runtime errors.
func (w *world) runSPMD(checked bool, build func(e *rankEnv)) (counters map[string]int64, errs []error) {
	ranks := 1
	if w.kind != onReal {
		ranks = len(w.nodes)
	}
	envs := make([]*rankEnv, ranks)
	for r := range envs {
		eng := sim.NewEngine()
		mach, net := platform.BuildMachine(eng, numPEs)
		opts := charm.Options{Checked: checked, Backend: charm.RealBackend}
		if w.kind != onReal {
			opts.Backend, opts.Net = charm.NetBackend, w.nodes[r]
		}
		envs[r] = &rankEnv{mach: mach,
			rts: charm.NewRTS(eng, mach, net, platform, trace.NewRecorder(), opts)}
		build(envs[r])
	}
	var wg sync.WaitGroup
	for _, e := range envs {
		wg.Add(1)
		go func(e *rankEnv) {
			defer wg.Done()
			e.rts.Run()
		}(e)
	}
	wg.Wait()
	counters = make(map[string]int64)
	for _, e := range envs {
		for k, v := range e.rts.Recorder().Counters() {
			counters[k] += v
		}
		errs = append(errs, e.rts.Errors()...)
	}
	return counters, errs
}
