package mpisim

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/netmodel"
)

// Win is an MPI RMA window: one exposed memory region per rank, plus the
// post-start-complete-wait synchronization the paper contrasts with
// CkDirect's synchronization-free completion (§2.3).
type Win struct {
	world *World
	// regions[r] is rank r's exposed buffer (may be nil if a rank exposes
	// nothing).
	regions []*machine.Region

	epochs []winEpoch
}

// winEpoch is per-rank PSCW state.
type winEpoch struct {
	// Exposure epoch (target side).
	exposed       bool
	exposeOrigins map[int]bool // origins allowed to access
	completesGot  int          // Complete signals received
	putsExpected  int          // puts announced by Complete signals
	putsLanded    int
	waitFn        func()

	// Access epoch (origin side).
	started      bool
	startTargets map[int]bool
	putsIssued   map[int]int // per target
	putsSendDone int
	putsInFlight int
}

// NewWin creates a window exposing regions[r] on rank r. len(regions)
// must equal the world size.
func (w *World) NewWin(regions []*machine.Region) *Win {
	if len(regions) != w.Size() {
		panic(fmt.Sprintf("mpisim: NewWin with %d regions for %d ranks", len(regions), w.Size()))
	}
	win := &Win{world: w, regions: regions}
	win.epochs = make([]winEpoch, w.Size())
	return win
}

// Post opens an exposure epoch on rank: the listed origins may now write
// into this rank's window region (MPI_Win_post).
func (win *Win) Post(rank int, origins []int) error {
	e := &win.epochs[rank]
	if e.exposed {
		return fmt.Errorf("mpisim: rank %d Post with exposure epoch already open", rank)
	}
	e.exposed = true
	e.exposeOrigins = make(map[int]bool, len(origins))
	for _, o := range origins {
		e.exposeOrigins[o] = true
	}
	e.completesGot = 0
	e.putsExpected = 0
	e.putsLanded = 0
	return nil
}

// Start opens an access epoch on rank toward the listed targets
// (MPI_Win_start). Real MPI blocks here until the matching Post; the
// simulation orders the control flow through Put/Complete instead.
func (win *Win) Start(rank int, targets []int) error {
	e := &win.epochs[rank]
	if e.started {
		return fmt.Errorf("mpisim: rank %d Start with access epoch already open", rank)
	}
	e.started = true
	e.startTargets = make(map[int]bool, len(targets))
	for _, t := range targets {
		e.startTargets[t] = true
	}
	e.putsIssued = make(map[int]int)
	e.putsSendDone = 0
	e.putsInFlight = 0
	return nil
}

// Put writes size bytes (optionally from src, a region on the origin)
// into the target's window region. It requires an open access epoch
// covering the target. The cost comes from the platform's MPI_Put regime
// table, whose calibration includes the PSCW synchronization overhead.
func (win *Win) Put(rank, target, size int, src *machine.Region) error {
	e := &win.epochs[rank]
	if !e.started {
		return fmt.Errorf("mpisim: rank %d Put outside an access epoch", rank)
	}
	if !e.startTargets[target] {
		return fmt.Errorf("mpisim: rank %d Put to target %d not in access group", rank, target)
	}
	e.putsIssued[target]++
	e.putsInFlight++
	cost := win.world.putT.Resolve(size)
	if win.world.rec != nil {
		win.world.rec.Incr("mpi.puts", 1)
		win.world.rec.Incr("mpi.put_bytes", int64(size))
	}
	te := &win.epochs[target]
	win.world.net.Transfer(rank, target, cost, netmodel.TransferHooks{
		Kind: netmodel.KindMPIPut,
		OnSendDone: func() {
			e.putsInFlight--
			e.putsSendDone++
		},
		OnArrive: func() {
			if src != nil && win.regions[target] != nil {
				src.CopyTo(win.regions[target])
			}
			te.putsLanded++
			win.maybeFinishWait(target)
		},
	})
	return nil
}

// Complete closes the access epoch (MPI_Win_complete): once the local
// sends have drained, each target is informed how many puts to expect.
// fn fires when the epoch is closed locally.
func (win *Win) Complete(rank int, fn func()) error {
	e := &win.epochs[rank]
	if !e.started {
		return fmt.Errorf("mpisim: rank %d Complete without Start", rank)
	}
	finish := func() {
		e.started = false
		for t := range e.startTargets {
			te := &win.epochs[t]
			te.completesGot++
			te.putsExpected += e.putsIssued[t]
			win.maybeFinishWait(t)
		}
		if fn != nil {
			fn()
		}
	}
	if e.putsInFlight == 0 {
		finish()
		return nil
	}
	// Defer until local completion of outstanding puts: poll on the event
	// queue via a completion check attached to the last send. Simpler and
	// still deterministic: check after every send-done by re-arming.
	win.world.eng.Schedule(0, func() { win.completeWhenDrained(rank, finish) })
	return nil
}

func (win *Win) completeWhenDrained(rank int, finish func()) {
	e := &win.epochs[rank]
	if e.putsInFlight == 0 {
		finish()
		return
	}
	// Re-check after the next event; sends always drain, so this
	// terminates. The re-check is free of virtual-time cost but bounded
	// by the number of in-flight sends.
	win.world.eng.Schedule(1, func() { win.completeWhenDrained(rank, finish) })
}

// Wait closes the exposure epoch (MPI_Win_wait): fn fires once every
// origin in the post group has Completed and all announced puts landed.
func (win *Win) Wait(rank int, fn func()) error {
	e := &win.epochs[rank]
	if !e.exposed {
		return fmt.Errorf("mpisim: rank %d Wait without Post", rank)
	}
	if e.waitFn != nil {
		return fmt.Errorf("mpisim: rank %d Wait already pending", rank)
	}
	e.waitFn = fn
	win.maybeFinishWait(rank)
	return nil
}

func (win *Win) maybeFinishWait(rank int) {
	e := &win.epochs[rank]
	if e.waitFn == nil || !e.exposed {
		return
	}
	if e.completesGot < len(e.exposeOrigins) || e.putsLanded < e.putsExpected {
		return
	}
	fn := e.waitFn
	e.waitFn = nil
	e.exposed = false
	fn()
}
