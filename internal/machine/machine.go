// Package machine models the hardware substrate: processing elements
// (PEs), their grouping into nodes, memory regions that network hardware
// can address, and interconnect topologies.
//
// A PE serializes CPU work: the runtime layers above reserve CPU time on a
// PE for every software action whose cost they model (packing a message,
// running the scheduler, executing an entry method, polling CkDirect
// handles). Network transit time is *not* PE time — that separation is what
// lets communication overlap computation in the simulation exactly as it
// does on real message-driven systems.
package machine

import (
	"fmt"

	"repro/internal/sim"
)

// Config describes a simulated machine.
type Config struct {
	// PEs is the number of processing elements (cores running one
	// runtime scheduler each, Charm++'s "processor").
	PEs int
	// CoresPerNode groups PEs onto nodes; PEs on one node share a network
	// interface. Abe ran 8 cores/node, BG/P 4 (we follow the paper's runs,
	// e.g. 2 cores/node for the OpenAtom Abe study).
	CoresPerNode int
	// Topology is the interconnect shape, used for hop counts.
	Topology Topology
}

// Validate checks the configuration for obvious errors.
func (c Config) Validate() error {
	if c.PEs <= 0 {
		return fmt.Errorf("machine: PEs must be positive, got %d", c.PEs)
	}
	if c.CoresPerNode <= 0 {
		return fmt.Errorf("machine: CoresPerNode must be positive, got %d", c.CoresPerNode)
	}
	return nil
}

// Machine is a collection of PEs sharing a virtual clock and an
// interconnect.
type Machine struct {
	Engine *sim.Engine
	cfg    Config
	pes    []*PE
}

// New builds a machine on the given engine. It panics on invalid
// configuration (construction happens before any experiment runs, so
// failing fast is appropriate).
func New(engine *sim.Engine, cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Topology == nil {
		cfg.Topology = FlatTopology{}
	}
	m := &Machine{Engine: engine, cfg: cfg}
	m.pes = make([]*PE, cfg.PEs)
	for i := range m.pes {
		m.pes[i] = &PE{
			id:      i,
			node:    i / cfg.CoresPerNode,
			machine: m,
		}
	}
	return m
}

// NumPEs returns the number of processing elements.
func (m *Machine) NumPEs() int { return m.cfg.PEs }

// NumNodes returns the number of nodes.
func (m *Machine) NumNodes() int {
	return (m.cfg.PEs + m.cfg.CoresPerNode - 1) / m.cfg.CoresPerNode
}

// PE returns processing element i.
func (m *Machine) PE(i int) *PE { return m.pes[i] }

// Topology returns the interconnect topology.
func (m *Machine) Topology() Topology { return m.cfg.Topology }

// Hops returns the network hop count between the nodes hosting two PEs.
// Two PEs on the same node are 0 hops apart.
func (m *Machine) Hops(srcPE, dstPE int) int {
	src, dst := m.pes[srcPE].node, m.pes[dstPE].node
	if src == dst {
		return 0
	}
	return m.cfg.Topology.Hops(src, dst)
}

// PE is one simulated processing element.
type PE struct {
	id      int
	node    int
	machine *Machine

	busyUntil sim.Time
	busyTotal sim.Time
}

// ID returns the PE's index.
func (pe *PE) ID() int { return pe.id }

// Node returns the node hosting this PE.
func (pe *PE) Node() int { return pe.node }

// Machine returns the owning machine.
func (pe *PE) Machine() *Machine { return pe.machine }

// Reserve claims the CPU for cost units of virtual time, starting at the
// earliest instant the CPU is free (never before Now). It returns the
// start and end of the reservation. Callers schedule their completion
// logic at end.
//
// Reservations are granted in call order, which — because the simulation
// is single-threaded and deterministic — models a FIFO CPU.
func (pe *PE) Reserve(cost sim.Time) (start, end sim.Time) {
	if cost < 0 {
		panic(fmt.Sprintf("machine: negative CPU cost %v on PE %d", cost, pe.id))
	}
	now := pe.machine.Engine.Now()
	start = pe.busyUntil
	if start < now {
		start = now
	}
	end = start + cost
	pe.busyUntil = end
	pe.busyTotal += cost
	return start, end
}

// FreeAt reports the earliest time the CPU will be free given current
// reservations.
func (pe *PE) FreeAt() sim.Time {
	now := pe.machine.Engine.Now()
	if pe.busyUntil < now {
		return now
	}
	return pe.busyUntil
}

// BusyTotal reports the total CPU time reserved on this PE so far.
func (pe *PE) BusyTotal() sim.Time { return pe.busyTotal }
