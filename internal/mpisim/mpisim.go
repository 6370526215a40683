// Package mpisim implements the MPI baseline the paper compares against:
// two-sided Send/Recv with tag matching (eager and rendezvous regimes) and
// one-sided MPI_Put under post-start-complete-wait (PSCW), §2.3.
//
// Ranks map 1:1 onto simulated PEs. The API is continuation-passing
// (Recv(src, tag, fn)) because the simulation is event-driven; a blocking
// MPI_Recv corresponds to posting the receive and doing nothing until the
// continuation fires.
//
// Timing: the data path (message payloads, puts) is charged through the
// platform's calibrated MPI regime tables, which *include* the cost of tag
// matching and PSCW synchronization as measured end-to-end in the paper's
// Tables 1-2. The control signals that implement matching and epoch
// state transitions are therefore causally ordered but free of additional
// charge — charging them separately would double-count calibrated cost.
package mpisim

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Msg is an MPI message: size for the cost model, optional real payload,
// plus source/tag metadata filled in on delivery.
type Msg struct {
	Size int
	Data []byte
	Src  int
	Tag  int
}

// World is an MPI job: one rank per PE.
type World struct {
	eng   *sim.Engine
	mach  *machine.Machine
	net   *netmodel.Net
	sendT netmodel.Table
	putT  netmodel.Table
	rec   *trace.Recorder
	ranks []*Rank
}

// Config selects the MPI personality.
type Config struct {
	// Table is the two-sided regime table (e.g. plat.MPI or plat.MPIAlt).
	Table netmodel.Table
	// PutTable is the one-sided (PSCW) regime table (plat.MPIPut).
	PutTable netmodel.Table
	// Recorder is optional.
	Recorder *trace.Recorder
}

// NewWorld creates an MPI world over the machine (one rank per PE).
func NewWorld(eng *sim.Engine, mach *machine.Machine, net *netmodel.Net, cfg Config) *World {
	if err := cfg.Table.Validate(); err != nil {
		panic(err)
	}
	w := &World{
		eng:   eng,
		mach:  mach,
		net:   net,
		sendT: cfg.Table,
		putT:  cfg.PutTable,
		rec:   cfg.Recorder,
	}
	w.ranks = make([]*Rank, mach.NumPEs())
	for i := range w.ranks {
		w.ranks[i] = &Rank{world: w, id: i}
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Rank returns rank i.
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// Engine returns the simulation engine.
func (w *World) Engine() *sim.Engine { return w.eng }

// Rank is one MPI process.
type Rank struct {
	world *World
	id    int

	posted     []*postedRecv
	unexpected []*Msg
}

type postedRecv struct {
	src, tag int
	fn       func(*Msg)
}

// ID returns the rank number.
func (r *Rank) ID() int { return r.id }

// matches reports whether a posted (src,tag) pattern accepts a message.
func matches(wantSrc, wantTag int, m *Msg) bool {
	return wantSrc == m.Src && wantTag == m.Tag
}

// Send transmits msg to rank dst with the given tag. Like an eager
// MPI_Send, it returns immediately; the payload's full two-sided cost
// (including any rendezvous regime) is charged by the regime table.
func (r *Rank) Send(dst, tag int, msg *Msg) {
	if dst < 0 || dst >= len(r.world.ranks) {
		panic(fmt.Sprintf("mpisim: send to invalid rank %d", dst))
	}
	m := &Msg{Size: msg.Size, Data: msg.Data, Src: r.id, Tag: tag}
	cost := r.world.sendT.Resolve(msg.Size)
	if r.world.rec != nil {
		r.world.rec.Incr("mpi.sends", 1)
		r.world.rec.Incr("mpi.bytes", int64(msg.Size))
	}
	dstRank := r.world.ranks[dst]
	// The MPI paths are tagged for fault targeting but carry no
	// reliability protocol: like real MPI they assume a reliable
	// transport, so injected faults surface as hangs/lost data — the
	// baseline CkDirect's watchdog is compared against.
	r.world.net.Transfer(r.id, dst, cost, netmodel.TransferHooks{
		Kind:     netmodel.KindMPIMsg,
		OnArrive: func() { dstRank.arrive(m) },
	})
}

// arrive matches an incoming message against posted receives (in post
// order, per MPI's matching rules) or queues it as unexpected.
func (r *Rank) arrive(m *Msg) {
	for i, p := range r.posted {
		if matches(p.src, p.tag, m) {
			copy(r.posted[i:], r.posted[i+1:])
			r.posted = r.posted[:len(r.posted)-1]
			p.fn(m)
			return
		}
	}
	r.unexpected = append(r.unexpected, m)
}

// Recv posts a receive for exactly (src, tag) and invokes fn with the
// matched message. Unexpected messages are searched first in arrival
// order, as MPI requires.
func (r *Rank) Recv(src, tag int, fn func(*Msg)) {
	for i, m := range r.unexpected {
		if matches(src, tag, m) {
			copy(r.unexpected[i:], r.unexpected[i+1:])
			r.unexpected = r.unexpected[:len(r.unexpected)-1]
			fn(m)
			return
		}
	}
	r.posted = append(r.posted, &postedRecv{src: src, tag: tag, fn: fn})
}

// PendingUnexpected reports the unexpected-queue depth (for tests).
func (r *Rank) PendingUnexpected() int { return len(r.unexpected) }

// PendingPosted reports the posted-receive queue depth (for tests).
func (r *Rank) PendingPosted() int { return len(r.posted) }
