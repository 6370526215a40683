package charm

import (
	"fmt"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/machine"
	"repro/internal/netmodel"
	"repro/internal/netrt"
	"repro/internal/realrt"
	"repro/internal/sim"
	"repro/internal/trace"
)

// RTS is the message-driven runtime: one scheduler per PE, a registry of
// chare arrays, PE-level handlers for runtime services (reduction trees,
// broadcast trees), and hooks for the CkDirect extension.
type RTS struct {
	eng  *sim.Engine
	mach *machine.Machine
	net  *netmodel.Net
	plat *netmodel.Platform
	rec  *trace.Recorder
	opts Options

	// be is the execution substrate (discrete-event simulation, the
	// realrt goroutine runtime, or the distributed netrt runtime); real
	// is non-nil only under RealBackend, netrt only under NetBackend.
	be    backend
	real  *realrt.Runtime
	netrt *netrt.Runtime

	// ctr holds the recorder's handles for the per-message and
	// per-reduction counters, one slot per hosted PE (see Counter).
	ctr struct{ msgs, bytes, reductions, forwards trace.Counter }

	pes       []*peSched
	peEPs     []Handler
	arrays    []*Array
	reducers  []*reducer
	schedCost sim.Time

	// pollTax is installed by the CkDirect manager; it returns the CPU
	// cost of scanning the polling queue on a PE, charged on every
	// scheduler pass (paper §5.2).
	pollTax func(pe int) sim.Time

	// broadcast-tree service state. castMu guards the session table: under
	// the real backend broadcasts originate on PE goroutines while other
	// PEs concurrently look sessions up.
	castEP       EP
	castMu       sync.Mutex
	castSessions []castSession

	// loadMeter, when installed, observes every element entry-method
	// dispatch (the hook the load balancer's per-element metering uses).
	loadMeter LoadMeter

	// quiescence detection state (see quiescence.go).
	qdCounter int64
	qdWaiters []func()

	// rel, when non-nil, routes every message transport through the
	// ack/retransmit protocol (see reliable.go).
	rel *reliableState

	// timeline, when attached, records one span per scheduler dispatch
	// (Projections-style performance tracing).
	timeline *trace.Timeline

	errMu sync.Mutex
	errs  []error
}

// SetTimeline attaches a span recorder; nil detaches.
func (rts *RTS) SetTimeline(tl *trace.Timeline) { rts.timeline = tl }

// LoadMeter observes chare-array entry-method dispatches — the seam the
// load balancer (internal/lb) hooks to attribute compute and message
// volume to individual elements. busy is virtual time under sim
// (capturing what the handler Charged) and wall-clock under the live
// backends. Implementations must tolerate concurrent calls from
// different PE goroutines.
type LoadMeter interface {
	ElementRan(array int, idx Index, pe int, busy sim.Time, msgBytes int)
}

// SetLoadMeter installs the element dispatch observer; nil removes it.
// Install before the run starts — the dispatch path reads it unlocked.
func (rts *RTS) SetLoadMeter(m LoadMeter) { rts.loadMeter = m }

// invoke runs an element entry method, metering the dispatch when a
// LoadMeter is installed. Non-element handlers (PE handlers, reduction
// clients) bypass the meter.
func (rts *RTS) invoke(h Handler, ctx *Ctx, msg *Message) {
	lm := rts.loadMeter
	if lm == nil || ctx.elem == nil {
		h(ctx, msg)
		return
	}
	if rts.opts.Backend == SimBackend {
		// The PE's free point advances by exactly what the handler
		// charges, so the delta is the element's modelled compute —
		// deterministic across runs, unlike wall-clock.
		pe := rts.pes[ctx.pe].pe
		start := pe.FreeAt()
		h(ctx, msg)
		lm.ElementRan(ctx.arr.ord, ctx.idx, ctx.pe, pe.FreeAt()-start, msg.Size)
		return
	}
	start := rts.be.now()
	h(ctx, msg)
	lm.ElementRan(ctx.arr.ord, ctx.idx, ctx.pe, rts.be.now()-start, msg.Size)
}

// EnqueueOn places fn on a hosted PE's scheduler queue as a plain task
// (paying scheduler overhead under sim). Runtime extensions use it to
// run work on the goroutine that owns a PE's state; pe must be hosted
// by this process.
func (rts *RTS) EnqueueOn(pe int, fn func()) { rts.enqueue(pe, fn) }

// peSched is the per-PE scheduler state: a FIFO of pending deliveries and
// a flag indicating whether a scheduler pass is in flight.
type peSched struct {
	pe      *machine.PE
	queue   []func()
	running bool
}

// NewRTS builds a runtime on a platform-configured machine.
func NewRTS(eng *sim.Engine, mach *machine.Machine, net *netmodel.Net, plat *netmodel.Platform, rec *trace.Recorder, opts Options) *RTS {
	rts := &RTS{
		eng:       eng,
		mach:      mach,
		net:       net,
		plat:      plat,
		rec:       rec,
		opts:      opts,
		schedCost: sim.Microseconds(plat.SchedUS),
	}
	rts.pes = make([]*peSched, mach.NumPEs())
	for i := range rts.pes {
		rts.pes[i] = &peSched{pe: mach.PE(i)}
	}
	rts.castEP = rts.RegisterPEHandler(func(ctx *Ctx, msg *Message) {
		rts.runCast(ctx.pe, int(msg.Val), msg.Tag)
	})
	switch opts.Backend {
	case SimBackend:
		rts.be = &simBackend{rts: rts}
	case RealBackend:
		rts.real = realrt.New(mach.NumPEs())
		rts.be = &realBackend{rts: rts, rt: rts.real}
	case NetBackend:
		if opts.Net == nil {
			panic("charm: NetBackend requires Options.Net (a started netrt.Node)")
		}
		nrt, err := opts.Net.NewRuntime(mach.NumPEs())
		if err != nil {
			panic(fmt.Sprintf("charm: %v", err))
		}
		nrt.SetDeliver(rts.deliverWire)
		rts.netrt = nrt
		rts.be = &netBackend{rts: rts, nrt: nrt}
	default:
		panic(fmt.Sprintf("charm: unknown backend %v", opts.Backend))
	}
	rts.ctr.msgs = rts.Counter("charm.msgs")
	rts.ctr.bytes = rts.Counter("charm.bytes")
	rts.ctr.reductions = rts.Counter("charm.reductions")
	rts.ctr.forwards = rts.Counter(trace.CntLBForwards)
	return rts
}

// Counter returns a handle on the named counter of the recorder with one
// slot per PE this process runs concurrently: every PE under real, the
// hosted block under net, and a single slot under the single-threaded
// simulator. Runtime extensions cache it for their per-operation sites
// and pass the acting PE to Add.
func (rts *RTS) Counter(name string) trace.Counter {
	switch {
	case rts.real != nil:
		return rts.rec.Counter(name, 0, rts.mach.NumPEs())
	case rts.netrt != nil:
		return rts.rec.Counter(name, rts.netrt.Lo(), rts.netrt.Hi()-rts.netrt.Lo())
	}
	return rts.rec.Counter(name, 0, 1)
}

// Engine returns the simulation engine.
func (rts *RTS) Engine() *sim.Engine { return rts.eng }

// Machine returns the simulated machine.
func (rts *RTS) Machine() *machine.Machine { return rts.mach }

// Net returns the network sequencer.
func (rts *RTS) Net() *netmodel.Net { return rts.net }

// Platform returns the cost-model platform.
func (rts *RTS) Platform() *netmodel.Platform { return rts.plat }

// Recorder returns the trace recorder (possibly nil).
func (rts *RTS) Recorder() *trace.Recorder { return rts.rec }

// Options returns the runtime options.
func (rts *RTS) Options() Options { return rts.opts }

// Backend returns the execution substrate this runtime drives.
func (rts *RTS) Backend() Backend { return rts.opts.Backend }

// Real returns the realrt runtime under RealBackend, nil under sim. The
// CkDirect layer uses it to register its polling hook and to manage the
// per-put work credits.
func (rts *RTS) Real() *realrt.Runtime { return rts.real }

// NetRT returns the distributed runtime under NetBackend, nil otherwise.
func (rts *RTS) NetRT() *netrt.Runtime { return rts.netrt }

// HostsPE reports whether a PE executes in this process: always true
// except under NetBackend, where each process hosts one block of PEs.
func (rts *RTS) HostsPE(pe int) bool {
	return rts.netrt == nil || rts.netrt.Hosts(pe)
}

// Now returns the current time on the active backend: virtual time under
// sim, wall-clock time under real.
func (rts *RTS) Now() sim.Time { return rts.be.now() }

// PutTransfer routes a one-sided put through the backend seam: the
// simulator plays the modelled network path, the real backend executes
// the copy + sentinel release-store on the calling (sender) goroutine.
func (rts *RTS) PutTransfer(op PutOp) { rts.be.put(op) }

// ChargeOn accounts CPU consumed on a PE outside any context (channel
// setup costs). A no-op under the real backend.
func (rts *RTS) ChargeOn(pe int, cost sim.Time) { rts.be.charge(pe, cost) }

// SetPollTax installs the CkDirect polling-queue tax. Passing nil removes
// it.
func (rts *RTS) SetPollTax(fn func(pe int) sim.Time) { rts.pollTax = fn }

// ReportError records a contract violation detected in checked mode.
// Safe from any PE goroutine under the real backend.
func (rts *RTS) ReportError(err error) {
	rts.errMu.Lock()
	rts.errs = append(rts.errs, err)
	rts.errMu.Unlock()
	if rts.rec != nil {
		rts.rec.Incr("rts.errors", 1)
	}
}

// Errors returns contract violations recorded so far.
func (rts *RTS) Errors() []error {
	rts.errMu.Lock()
	defer rts.errMu.Unlock()
	return append([]error(nil), rts.errs...)
}

// Run drives the program to completion on the active backend — the event
// queue drains (sim) or global quiescence is reached (real) — returning
// the final time.
func (rts *RTS) Run() sim.Time { return rts.be.run() }

// Exit ends the run from its root, the analogue of Charm++'s CkExit. The
// caller — the root's last step barrier, in practice — vouches that no
// message or put of the run is still in flight or still to be sent.
// Under net, rank 0 then halts every rank at once instead of waiting for
// quiescence detection to prove it (netrt.Runtime.Exit). Under sim and
// real Exit does nothing: their quiescence is exact and costs nothing.
// Called on a net rank other than the root it is a contract violation
// (netrt.ErrExitOffRoot): reported under Checked, a panic otherwise.
func (rts *RTS) Exit() {
	if rts.netrt == nil {
		return
	}
	if err := rts.netrt.Exit(); err != nil {
		if !rts.opts.Checked {
			panic(err)
		}
		rts.ReportError(err)
	}
}

// Executed counts completed scheduler dispatches (simulator events under
// sim, scheduler tasks under real).
func (rts *RTS) Executed() uint64 { return rts.be.executed() }

// CtxOn builds a bare execution context for a PE. It is used by runtime
// extensions (CkDirect callbacks) and drivers; entry methods receive their
// contexts from the scheduler instead.
func (rts *RTS) CtxOn(pe int) *Ctx { return &Ctx{rts: rts, pe: pe} }

// StartAt enqueues fn as an initial task on a PE (like a mainchare entry
// point). It goes through the scheduler so even startup pays realistic
// costs.
func (rts *RTS) StartAt(pe int, fn func(ctx *Ctx)) {
	if !rts.HostsPE(pe) {
		// SPMD setup runs on every process; the start task belongs only
		// to the one hosting its PE.
		return
	}
	rts.enqueue(pe, func() {
		fn(&Ctx{rts: rts, pe: pe})
	})
}

// RegisterPEHandler registers a PE-level handler (used by runtime
// services and by code that addresses PEs rather than chares) and returns
// its EP.
func (rts *RTS) RegisterPEHandler(h Handler) EP {
	rts.peEPs = append(rts.peEPs, h)
	return EP(len(rts.peEPs) - 1)
}

// SendPE sends a message from srcPE to a PE-level handler on dstPE, paying
// the full Charm++ message cost (envelope, receive processing, scheduler).
func (rts *RTS) SendPE(srcPE, dstPE int, ep EP, msg *Message) {
	if int(ep) < 0 || int(ep) >= len(rts.peEPs) {
		panic(fmt.Sprintf("charm: SendPE to unregistered EP %d", ep))
	}
	rts.ctr.msgs.Add(srcPE, 1)
	rts.ctr.bytes.Add(srcPE, int64(msg.Size))
	if !rts.HostsPE(dstPE) {
		rts.netrt.SendMsg(&netrt.Env{
			Kind: netrt.EnvPE, Array: -1, EP: int(ep),
			SrcPE: srcPE, DstPE: dstPE,
			Size: msg.Size, Tag: msg.Tag, Val: msg.Val,
			Vals: msg.Vals, Data: msg.Data,
		})
		return
	}
	h := rts.peEPs[ep]
	msg = rts.cloneForReal(msg)
	rts.transport(srcPE, dstPE, msg.Size, func() {
		rts.enqueue(dstPE, func() {
			h(&Ctx{rts: rts, pe: dstPE}, msg)
		})
	})
}

// cloneForReal copies a message's payload under the real and net
// backends — Charm++ copy-on-send semantics. Senders there reuse their
// staging buffers across iterations while earlier messages are still in
// flight on other goroutines; the simulator's instant-closure delivery
// never needed the copy (and skipping it keeps sim runs byte-for-byte
// identical to the seed).
func (rts *RTS) cloneForReal(msg *Message) *Message {
	if rts.opts.Backend == SimBackend {
		return msg
	}
	m := *msg
	if msg.Data != nil {
		m.Data = append([]byte(nil), msg.Data...)
	}
	if msg.Vals != nil {
		m.Vals = append([]float64(nil), msg.Vals...)
	}
	return &m
}

// delivery is one pooled wire-delivery record: the handler, its context,
// an inline Message and a closure built once per record that runs the
// handler and then recycles everything. Steady-state eager receive
// therefore allocates nothing per message — the record, its Message and
// its closure all come back through deliveryPool. The ownership contract
// this encodes (DESIGN.md §9): a wire-delivered *Message and its Data
// are borrowed for the duration of the entry method; handlers that keep
// either past their own return must copy out.
type delivery struct {
	h      Handler
	ctx    *Ctx
	peCtx  Ctx // backing store for EnvPE deliveries (array deliveries use the element's cached Ctx)
	msg    Message
	pooled []byte
	run    func()
}

var deliveryPool sync.Pool

// getDelivery returns a recycled (or fresh) delivery record. The run
// closure is created only on a pool miss and survives recycling: it
// reads the record's current fields, so one closure serves every reuse.
func getDelivery() *delivery {
	if v := deliveryPool.Get(); v != nil {
		return v.(*delivery)
	}
	d := &delivery{}
	d.run = func() {
		d.ctx.rts.invoke(d.h, d.ctx, &d.msg)
		bufpool.Put(d.pooled)
		run := d.run
		*d = delivery{run: run} // drop references so the pool pins nothing
		deliveryPool.Put(d)
	}
	return d
}

// deliverWire is the NetBackend's inbound dispatcher: it re-binds a wire
// envelope's ordinal identities (array, index, EP) to this process's
// SPMD-identical registration tables and enqueues the handler on the
// destination PE. It runs on connection reader goroutines; everything
// malformed is reported, never panicked — a corrupt or mismatched frame
// from another process must not take this one down.
//
// When pooled is non-nil the envelope's Data aliases that pooled wire
// buffer and this dispatcher owns it: every exit path either returns it
// to the pool (error paths, and the delivery record after the handler
// completes) — the zero-copy eager receive. Handlers that retain
// message bytes past their own return must copy them out.
func (rts *RTS) deliverWire(env netrt.Env, pooled []byte) {
	switch env.Kind {
	case netrt.EnvPE:
		if env.EP < 0 || env.EP >= len(rts.peEPs) {
			rts.ReportError(fmt.Errorf("charm: wire message for unregistered PE handler %d", env.EP))
			bufpool.Put(pooled)
			return
		}
		if !rts.HostsPE(env.DstPE) {
			rts.ReportError(fmt.Errorf("charm: wire message for PE %d, not hosted here", env.DstPE))
			bufpool.Put(pooled)
			return
		}
		d := getDelivery()
		d.h = rts.peEPs[env.EP]
		d.peCtx = Ctx{rts: rts, pe: env.DstPE}
		d.ctx = &d.peCtx
		d.msg = Message{Size: env.Size, Tag: env.Tag, Val: env.Val, Vals: env.Vals, Data: env.Data}
		d.pooled = pooled
		rts.netrt.Enqueue(env.DstPE, d.run)
	case netrt.EnvArray:
		a, el, ok := rts.wireElement(&env)
		if !ok {
			bufpool.Put(pooled)
			return
		}
		if !rts.HostsPE(el.pe) {
			// Straggler: the element migrated and this frame raced the
			// location update to its old host. Re-route to the current
			// host. The payload must be copied out of the pooled wire
			// buffer first — a rendezvous re-send parks it past this
			// frame's lifetime.
			fwd := &netrt.Env{
				Kind: netrt.EnvArray, Array: a.ord, EP: env.EP, Index: env.Index,
				SrcPE: env.SrcPE, DstPE: el.pe,
				Size: env.Size, Tag: env.Tag, Val: env.Val,
			}
			if env.Vals != nil {
				fwd.Vals = append([]float64(nil), env.Vals...)
			}
			if env.Data != nil {
				fwd.Data = append([]byte(nil), env.Data...)
			}
			bufpool.Put(pooled)
			rts.netrt.SendMsg(fwd)
			rts.ctr.forwards.Add(env.DstPE, 1)
			return
		}
		d := getDelivery()
		d.h = a.eps[env.EP]
		d.ctx = a.ctxFor(el)
		d.msg = Message{Size: env.Size, Tag: env.Tag, Val: env.Val, Vals: env.Vals, Data: env.Data}
		d.pooled = pooled
		rts.netrt.Enqueue(el.pe, d.run)
	case netrt.EnvCast:
		if env.Array < 0 || env.Array >= len(rts.arrays) {
			rts.ReportError(fmt.Errorf("charm: wire broadcast for unknown array ordinal %d", env.Array))
			return
		}
		a := rts.arrays[env.Array]
		if env.EP < 0 || int(env.EP) >= len(a.eps) {
			rts.ReportError(fmt.Errorf("charm: wire broadcast for unregistered EP %d on %s", env.EP, a.name))
			return
		}
		// A broadcast fans out to every local element — a multi-consumer
		// message with no single release point — so it rides one plain
		// heap Message shared by all deliveries, never a pooled record.
		msg := &Message{Size: env.Size, Tag: env.Tag, Val: env.Val, Vals: env.Vals, Data: env.Data}
		if pooled != nil {
			// Defensive: netrt copies broadcasts out of the wire buffer
			// before delivery. If a pooled broadcast ever arrives, copy
			// here and release immediately.
			if msg.Data != nil {
				msg.Data = append([]byte(nil), msg.Data...)
			}
			bufpool.Put(pooled)
		}
		h := a.eps[env.EP]
		for pe := rts.netrt.Lo(); pe < rts.netrt.Hi(); pe++ {
			for _, el := range a.perPE[pe] {
				el := el
				rts.netrt.Enqueue(pe, func() {
					rts.invoke(h, a.ctxFor(el), msg)
				})
			}
		}
	}
}

// wireElement resolves an EnvArray envelope to its array and element,
// reporting (not panicking) on anything out of range.
func (rts *RTS) wireElement(env *netrt.Env) (*Array, *element, bool) {
	if env.Array < 0 || env.Array >= len(rts.arrays) {
		rts.ReportError(fmt.Errorf("charm: wire message for unknown array ordinal %d", env.Array))
		return nil, nil, false
	}
	a := rts.arrays[env.Array]
	if env.EP < 0 || int(env.EP) >= len(a.eps) {
		rts.ReportError(fmt.Errorf("charm: wire message for unregistered EP %d on %s", env.EP, a.name))
		return nil, nil, false
	}
	el, ok := a.elems[Index(env.Index)]
	if !ok {
		rts.ReportError(fmt.Errorf("charm: wire message for missing element %s[%s]", a.name, Index(env.Index)))
		return nil, nil, false
	}
	return a, el, true
}

// transport moves a message between PEs on the active backend; arrive
// runs on the destination once the message is received.
func (rts *RTS) transport(srcPE, dstPE, size int, arrive func()) {
	rts.be.send(srcPE, dstPE, size, arrive)
}

// enqueue appends a delivery to a PE's scheduler queue on the active
// backend.
func (rts *RTS) enqueue(pe int, deliver func()) {
	rts.be.schedule(pe, deliver)
}

// simTransport is the simulator's message path, the choke point shared by
// SendPE and Array.Send: it resolves the Charm++ envelope cost, keeps the
// quiescence counter honest across the flight, and routes through the
// reliability protocol when one is enabled. arrive runs on the
// destination once the message is (first) received.
func (rts *RTS) simTransport(srcPE, dstPE, size int, arrive func()) {
	cost := rts.plat.CharmMsg.Resolve(size + rts.plat.HeaderBytes)
	rts.qdInc() // in flight
	delivered := false
	deliver := func() {
		// The envelope layer discards replays of the same transfer even
		// without the reliability protocol: a duplicate delivery would
		// otherwise run the handler twice and corrupt the quiescence count.
		if delivered {
			if rts.rec != nil {
				rts.rec.Incr(trace.CntDupDiscards, 1)
			}
			return
		}
		delivered = true
		arrive()
		rts.qdDec() // flight ended (queued activity took over)
	}
	if rts.rel == nil {
		rts.net.Transfer(srcPE, dstPE, cost, netmodel.TransferHooks{
			Kind:     netmodel.KindCharmMsg,
			OnArrive: deliver,
		})
		return
	}
	rts.rel.send(rts, srcPE, dstPE, cost, deliver)
}

// simEnqueue appends a delivery to a PE's simulated scheduler queue and
// kicks the scheduler loop if idle.
func (rts *RTS) simEnqueue(pe int, deliver func()) {
	s := rts.pes[pe]
	rts.qdInc()
	s.queue = append(s.queue, deliver)
	rts.kick(pe)
}

func (rts *RTS) kick(pe int) {
	s := rts.pes[pe]
	if s.running || len(s.queue) == 0 {
		return
	}
	s.running = true
	rts.eng.At(s.pe.FreeAt(), func() { rts.pass(pe) })
}

// pass is one scheduler iteration: charge the dispatch overhead plus the
// CkDirect polling tax, run the handler, then continue with the next
// queued message once the PE is free again.
func (rts *RTS) pass(pe int) {
	s := rts.pes[pe]
	if len(s.queue) == 0 {
		s.running = false
		return
	}
	deliver := s.queue[0]
	copy(s.queue, s.queue[1:])
	s.queue = s.queue[:len(s.queue)-1]

	overhead := rts.schedCost
	if rts.pollTax != nil {
		tax := rts.pollTax(pe)
		overhead += tax
		if rts.rec != nil && tax > 0 {
			rts.rec.AddTime("ckd.polltax", tax)
		}
	}
	if rts.rec != nil {
		rts.rec.AddTime("charm.sched", rts.schedCost)
	}
	start, end := s.pe.Reserve(overhead)
	rts.eng.At(end, func() {
		deliver()
		rts.qdDec()
		if rts.timeline != nil {
			// One span per dispatch: scheduler overhead plus whatever
			// compute the handler charged.
			rts.timeline.AddSpan(pe, "entry", "dispatch", start, s.pe.FreeAt())
		}
		rts.eng.At(s.pe.FreeAt(), func() { rts.pass(pe) })
	})
}

// Ctx is the execution context handed to entry methods, reduction clients
// and CkDirect callbacks. It identifies the PE (and, for array entry
// methods, the receiving element) and provides the communication and
// cost-accounting API.
type Ctx struct {
	rts  *RTS
	pe   int
	arr  *Array
	idx  Index
	obj  interface{}
	elem *element
}

// Now returns the current time (virtual under sim, wall-clock under
// real).
func (c *Ctx) Now() sim.Time { return c.rts.be.now() }

// PE returns the processing element this context executes on.
func (c *Ctx) PE() int { return c.pe }

// RTS returns the runtime.
func (c *Ctx) RTS() *RTS { return c.rts }

// Obj returns the chare object for array entry methods (nil otherwise).
func (c *Ctx) Obj() interface{} { return c.obj }

// Index returns the element index for array entry methods.
func (c *Ctx) Index() Index { return c.idx }

// Charge accounts for computation performed by the caller: the PE stays
// busy for cost units of virtual time after the current point. Under the
// real backend this is a no-op — real compute takes real time.
func (c *Ctx) Charge(cost sim.Time) {
	c.rts.be.charge(c.pe, cost)
}

// After schedules fn on this PE's context after a plain delay (no CPU
// reserved) — virtual sleep under sim, a wall-clock timer under real.
func (c *Ctx) After(d sim.Time, fn func(ctx *Ctx)) {
	pe := c.pe
	c.rts.be.after(pe, d, func() {
		fn(&Ctx{rts: c.rts, pe: pe})
	})
}

// EnqueueLocal places fn on this PE's scheduler queue as a local entry
// method (paying scheduler overhead). This models the OpenAtom pattern
// where a CkDirect callback "enqueues a CHARM++ entry method to perform
// the multiplication" (paper §5.1).
func (c *Ctx) EnqueueLocal(fn func(ctx *Ctx)) {
	pe := c.pe
	c.rts.enqueue(pe, func() {
		fn(&Ctx{rts: c.rts, pe: pe})
	})
}

// SendPE sends to a PE-level handler from this context's PE.
func (c *Ctx) SendPE(dstPE int, ep EP, msg *Message) {
	c.rts.SendPE(c.pe, dstPE, ep, msg)
}
