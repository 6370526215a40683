// Package ckdsim is the public face of the CkDirect reproduction: a
// message-driven runtime (chares, entry methods, reductions) with the
// CkDirect one-sided channel extension, running on simulated machines
// calibrated against the paper's two evaluation platforms.
//
// The quickest way in:
//
//	sys := ckdsim.NewSystem(ckdsim.AbeIB(), 4, ckdsim.Options{Checked: true})
//	recv := sys.Machine().AllocRegion(1, 64, false)
//	h, _ := sys.CkDirect().CreateHandle(1, recv, oob, func(ctx *ckdsim.Ctx) { ... })
//	...
//	sys.Run()
//
// See examples/ for complete programs.
package ckdsim

import (
	"repro/internal/charm"
	"repro/internal/ckdirect"
	"repro/internal/machine"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Re-exported core types. These are aliases, so values flow freely
// between the public API and the internal packages.
type (
	// Time is virtual time in nanoseconds.
	Time = sim.Time
	// Engine is the discrete-event engine driving a simulation.
	Engine = sim.Engine
	// Machine is the simulated hardware: PEs, nodes, topology.
	Machine = machine.Machine
	// Region is network-addressable memory on a PE.
	Region = machine.Region
	// Platform bundles the calibrated cost model of one evaluation
	// machine.
	Platform = netmodel.Platform
	// RTS is the message-driven runtime.
	RTS = charm.RTS
	// Array is a chare array.
	Array = charm.Array
	// Section is a fixed subset of an array with its own multicast and
	// reduction machinery.
	Section = charm.Section
	// Index addresses an element of a chare array.
	Index = charm.Index
	// EP identifies a registered entry method.
	EP = charm.EP
	// Ctx is the execution context passed to entry methods and CkDirect
	// callbacks.
	Ctx = charm.Ctx
	// Message is a two-sided message.
	Message = charm.Message
	// Options configures runtime checking, payload handling and the
	// execution backend.
	Options = charm.Options
	// Backend selects how programs execute: simulated virtual time or
	// real goroutine-per-PE execution.
	Backend = charm.Backend
	// Manager owns CkDirect state for a runtime.
	Manager = ckdirect.Manager
	// Handle is one CkDirect channel.
	Handle = ckdirect.Handle
	// GetHandle is the receiver-initiated (get) alternative the paper
	// argued against — provided for comparison.
	GetHandle = ckdirect.GetHandle
	// Recorder accumulates instrumentation.
	Recorder = trace.Recorder
	// ReduceOp selects a reduction combiner.
	ReduceOp = charm.ReduceOp
)

// Re-exported constants and helpers.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Reduction operations.
const (
	Sum  = charm.Sum
	Min  = charm.Min
	Max  = charm.Max
	Prod = charm.Prod
)

// Execution backends.
const (
	SimBackend  = charm.SimBackend
	RealBackend = charm.RealBackend
)

// ParseBackend maps "sim" / "real" to a Backend (flag plumbing).
var ParseBackend = charm.ParseBackend

// Index constructors.
var (
	Idx1 = charm.Idx1
	Idx2 = charm.Idx2
	Idx3 = charm.Idx3
	Idx4 = charm.Idx4
)

// Array maps.
var (
	BlockMap1D = charm.BlockMap1D
	RRMap      = charm.RRMap
)

// Microseconds converts µs to Time.
func Microseconds(us float64) Time { return sim.Microseconds(us) }

// AbeIB returns the NCSA Abe (Infiniband) platform model.
func AbeIB() *Platform { return netmodel.AbeIB }

// SurveyorBGP returns the ANL Surveyor (Blue Gene/P) platform model.
func SurveyorBGP() *Platform { return netmodel.SurveyorBGP }

// Platforms returns all calibrated platforms by name.
func Platforms() map[string]*Platform { return netmodel.Platforms }

// System bundles everything one simulation needs: engine, machine,
// network, runtime, CkDirect manager and recorder.
type System struct {
	engine   *Engine
	machine  *Machine
	rts      *RTS
	ckd      *Manager
	recorder *Recorder
}

// NewSystem builds a ready-to-use simulation on the given platform with
// the given number of processing elements.
func NewSystem(plat *Platform, pes int, opts Options) *System {
	eng := sim.NewEngine()
	mach, net := plat.BuildMachine(eng, pes)
	rec := trace.NewRecorder()
	rts := charm.NewRTS(eng, mach, net, plat, rec, opts)
	return &System{
		engine:   eng,
		machine:  mach,
		rts:      rts,
		ckd:      ckdirect.NewManager(rts),
		recorder: rec,
	}
}

// Engine returns the event engine.
func (s *System) Engine() *Engine { return s.engine }

// Machine returns the simulated machine.
func (s *System) Machine() *Machine { return s.machine }

// RTS returns the message-driven runtime.
func (s *System) RTS() *RTS { return s.rts }

// CkDirect returns the one-sided channel manager.
func (s *System) CkDirect() *Manager { return s.ckd }

// Recorder returns the instrumentation recorder.
func (s *System) Recorder() *Recorder { return s.recorder }

// Run drives the program to completion and returns the final time:
// virtual time on the sim backend, wall-clock elapsed on the real one.
func (s *System) Run() Time { return s.rts.Run() }

// Errors returns contract violations recorded in checked mode.
func (s *System) Errors() []error { return s.rts.Errors() }
