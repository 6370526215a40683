package openatom

import (
	"encoding/binary"
	"math"

	"repro/internal/apps"
	"repro/internal/charm"
	"repro/internal/ckdirect"
	"repro/internal/machine"
	"repro/internal/sim"
)

const oobPattern uint64 = 0x7FF8A70A70A70001

// Step driver phases for the GS-array reduction client.
const (
	phaseA    = iota // FFT/transpose proxy finished -> start PC phase
	phaseStep        // backward path finished -> step boundary
)

type app struct {
	cfg Config
	d   *apps.Driver
	rts *charm.RTS
	mgr *ckdirect.Manager

	gs, pc  *charm.Array
	nblocks int

	// GS entry points.
	phaseAEP, ringEP, sendPtsEP, backEP charm.EP
	// PC entry points.
	pointsEP, armEP, correctionEP charm.EP

	lastOverlap float64
	channels    int
	phase       int
	lambda      float64
}

type gsChare struct {
	app  *app
	s, p int
	pe   int

	coeffs  []float64 // 2*Points reals (validate mode, where storage is real)
	sendBuf []byte    // where storage is real
	sendReg *machine.Region
	out     []*ckdirect.Handle // one per destination PC

	ringGot int
	backGot int
}

// Pup checkpoints the GS element's state: the coefficient vector. The
// send staging buffer is re-encoded each step, and the phase counters
// are zero at every step boundary.
func (g *gsChare) Pup(p charm.Puper) {
	p.Float64s(&g.coeffs)
}

type pcChare struct {
	app       *app
	b1, b2, p int
	pe        int

	expected int
	got      int
	// Per-state staging: left[i] receives block-b1 state i's vector,
	// right[j] block b2's. On the diagonal the same arrival serves both.
	left, right [][]byte
	in          []*ckdirect.Handle

	overlap float64
}

// Pup checkpoints the PairCalculator's state: its overlap partial. The
// per-state staging slices are re-filled by the next step's arrivals,
// and expected/got are zero at every step boundary.
func (c *pcChare) Pup(p charm.Puper) {
	p.Float64(&c.overlap)
}

func (a *app) transferBytes() int { return a.cfg.Points * 16 }

func (a *app) build(d *apps.Driver) *charm.Array {
	a.d, a.rts, a.mgr = d, d.RTS, d.Mgr
	cfg := &a.cfg
	a.nblocks = cfg.NStates / cfg.Grain
	a.lambda = 1

	totalGS := cfg.NStates * cfg.NPlanes
	a.gs = a.rts.NewArray("gs", func(ix charm.Index) int {
		lin := ix[0]*cfg.NPlanes + ix[1]
		return lin * cfg.PEs / totalGS
	})
	totalPC := a.nblocks * a.nblocks * cfg.NPlanes
	a.pc = a.rts.NewArray("pc", func(ix charm.Index) int {
		lin := (ix[0]*a.nblocks+ix[1])*cfg.NPlanes + ix[2]
		return lin * cfg.PEs / totalPC
	})

	for s := 0; s < cfg.NStates; s++ {
		for p := 0; p < cfg.NPlanes; p++ {
			g := &gsChare{app: a, s: s, p: p}
			g.pe = a.gs.PEOf(charm.Idx2(s, p))
			if cfg.Validate && d.Storage(g.pe) == apps.Real {
				g.coeffs = make([]float64, 2*cfg.Points)
				for i := range g.coeffs {
					g.coeffs[i] = seedCoeff(s, p, i)
				}
			}
			g.sendBuf = d.Bytes(g.pe, a.transferBytes())
			a.gs.Insert(charm.Idx2(s, p), g)
		}
	}
	for b1 := 0; b1 < a.nblocks; b1++ {
		for b2 := 0; b2 < a.nblocks; b2++ {
			for p := 0; p < cfg.NPlanes; p++ {
				c := &pcChare{app: a, b1: b1, b2: b2, p: p}
				c.pe = a.pc.PEOf(charm.Idx3(b1, b2, p))
				c.expected = 2 * cfg.Grain
				if b1 == b2 {
					c.expected = cfg.Grain
				}
				c.left = make([][]byte, cfg.Grain)
				c.right = make([][]byte, cfg.Grain)
				a.pc.Insert(charm.Idx3(b1, b2, p), c)
			}
		}
	}

	a.registerGSEntries()
	a.registerPCEntries()
	if cfg.Mode != Msg {
		a.buildChannels()
	}
	return a.gs
}

// destinations lists the PCs a GS state feeds: every PC whose left block
// is the state's block, plus every PC whose right block is (excluding the
// diagonal double-count).
func (a *app) destinations(s, p int) []charm.Index {
	bs := s / a.cfg.Grain
	var out []charm.Index
	for b2 := 0; b2 < a.nblocks; b2++ {
		out = append(out, charm.Idx3(bs, b2, p))
	}
	for b1 := 0; b1 < a.nblocks; b1++ {
		if b1 != bs {
			out = append(out, charm.Idx3(b1, bs, p))
		}
	}
	return out
}

func (a *app) registerGSEntries() {
	a.phaseAEP = a.gs.EntryMethod("phaseA", func(ctx *charm.Ctx, msg *charm.Message) {
		ctx.Obj().(*gsChare).phaseA(ctx)
	})
	a.ringEP = a.gs.EntryMethod("ring", func(ctx *charm.Ctx, msg *charm.Message) {
		ctx.Obj().(*gsChare).onRing(ctx)
	})
	a.sendPtsEP = a.gs.EntryMethod("sendPoints", func(ctx *charm.Ctx, msg *charm.Message) {
		ctx.Obj().(*gsChare).sendPoints(ctx)
	})
	a.backEP = a.gs.EntryMethod("back", func(ctx *charm.Ctx, msg *charm.Message) {
		ctx.Obj().(*gsChare).onBack(ctx, msg)
	})
}

func (a *app) registerPCEntries() {
	a.pointsEP = a.pc.EntryMethod("points", func(ctx *charm.Ctx, msg *charm.Message) {
		c := ctx.Obj().(*pcChare)
		c.onPoints(ctx, msg.Tag, msg.Data)
	})
	a.armEP = a.pc.EntryMethod("arm", func(ctx *charm.Ctx, msg *charm.Message) {
		c := ctx.Obj().(*pcChare)
		for _, h := range c.in {
			// On the very first step the handles are still armed from
			// creation, and a fast put may already have fired a callback
			// before this broadcast was dispatched; only handles the
			// application has released (or that never fired) resume
			// polling here.
			if h.State() != ckdirect.Fired {
				a.mgr.ReadyPollQ(h)
			}
		}
	})
	a.correctionEP = a.pc.EntryMethod("correction", func(ctx *charm.Ctx, msg *charm.Message) {
		ctx.Obj().(*pcChare).onCorrection(ctx, msg.Val)
	})
	a.pc.SetReductionClient(charm.Sum, func(ctx *charm.Ctx, vals []float64) {
		a.onOrtho(ctx, vals[0])
	})
}

// buildChannels creates one CkDirect channel per (GS element, destination
// PC): the PC owns the receive buffer for that state's vector; the GS
// element's single send buffer is associated with all its channels.
func (a *app) buildChannels() {
	cfg := &a.cfg
	bytes := a.transferBytes()

	for s := 0; s < cfg.NStates; s++ {
		for p := 0; p < cfg.NPlanes; p++ {
			g := a.gs.Obj(charm.Idx2(s, p)).(*gsChare)
			g.sendReg = a.d.Region(g.pe, bytes, g.sendBuf)
			for _, dst := range a.destinations(s, p) {
				c := a.pc.Obj(dst).(*pcChare)
				backing := a.d.Bytes(c.pe, bytes)
				cc, ss := c, s
				h, err := a.mgr.CreateHandle(c.pe, a.d.Region(c.pe, bytes, backing), oobPattern, func(ctx *charm.Ctx) {
					cc.onArrival(ctx, ss, backing)
				})
				if err != nil {
					panic(err)
				}
				c.slotFor(s, backing)
				c.in = append(c.in, h)
				if err := a.mgr.AssocLocal(h, g.pe, g.sendReg); err != nil {
					panic(err)
				}
				g.out = append(g.out, h)
				a.channels++
			}
		}
	}
}

// slotFor records where state s's vector lands in this PC's assembly.
func (c *pcChare) slotFor(s int, backing []byte) {
	g := c.app.cfg.Grain
	if s/g == c.b1 {
		c.left[s%g] = backing
	}
	if s/g == c.b2 {
		c.right[s%g] = backing
	}
}

// beginStep launches one time step.
func (a *app) beginStep(ctx *charm.Ctx) {
	if a.cfg.Scope == FullStep {
		a.phase = phaseA
		ctx.Broadcast(a.gs, a.phaseAEP, &charm.Message{Size: 8})
		return
	}
	a.beginPCPhase(ctx)
}

// beginPCPhase is "the end of the phase prior to the PairCalculator": in
// the optimized variant the PC handles resume polling here (§5.2), then
// the GS elements ship their points.
func (a *app) beginPCPhase(ctx *charm.Ctx) {
	a.phase = phaseStep
	if a.cfg.Mode == Ckd && a.mgr.UsesPolling() {
		// Resume polling the PC channels only where polling exists; on
		// simulated Blue Gene/P the Ready calls have no effect (§2.2), so
		// the arm phase is skipped entirely. The real backend always polls
		// — the sentinel is its delivery mechanism — so it always arms.
		ctx.Broadcast(a.pc, a.armEP, &charm.Message{Size: 8})
	}
	ctx.Broadcast(a.gs, a.sendPtsEP, &charm.Message{Size: 8})
}

// onGSBarrier dispatches on the driver phase: the GS array's reduction is
// used both as the phase-A barrier and as the step barrier.
func (a *app) onGSBarrier(ctx *charm.Ctx, _ []float64) bool {
	if a.phase == phaseA {
		a.beginPCPhase(ctx)
		return false
	}
	return true
}

// ---- GS behaviour ----

// phaseA is the non-PairCalculator work proxy: FFT-like compute plus a
// plane-transpose message exchange.
func (g *gsChare) phaseA(ctx *charm.Ctx) {
	a := g.app
	n := float64(2 * a.cfg.Points)
	fftFlops := a.cfg.FFTWeight * 5 * n * math.Log2(n)
	ctx.Charge(sim.Nanoseconds(a.cfg.Platform.FlopNS * fftFlops))
	for _, dp := range []int{1, a.cfg.NPlanes - 1} {
		ctx.Send(a.gs, charm.Idx2(g.s, (g.p+dp)%a.cfg.NPlanes), a.ringEP, &charm.Message{
			Size: a.transferBytes(),
		})
	}
}

func (g *gsChare) onRing(ctx *charm.Ctx) {
	a := g.app
	ctx.Charge(sim.Nanoseconds(a.cfg.Platform.CopyPerByteNS * float64(a.transferBytes())))
	g.ringGot++
	if g.ringGot == 2 {
		g.ringGot = 0
		a.gs.ContributeFrom(charm.Idx2(g.s, g.p), 0)
	}
}

// sendPoints ships this element's coefficient vector to every
// PairCalculator that needs it — by message, or by one put per channel
// from the single associated send buffer.
func (g *gsChare) sendPoints(ctx *charm.Ctx) {
	a := g.app
	if a.cfg.Validate {
		encodeCoeffs(g.coeffs, g.sendBuf)
	}
	if a.cfg.Mode == Msg {
		for _, dst := range a.destinations(g.s, g.p) {
			ctx.Send(a.pc, dst, a.pointsEP, &charm.Message{
				Size: a.transferBytes(),
				Data: g.sendBuf,
				Tag:  g.s,
			})
		}
		return
	}
	for _, h := range g.out {
		if err := a.mgr.Put(h); err != nil {
			panic(err)
		}
	}
}

// onBack receives the corrected data returning from a PairCalculator.
func (g *gsChare) onBack(ctx *charm.Ctx, msg *charm.Message) {
	a := g.app
	g.backGot++
	if g.backGot == a.nblocks {
		g.backGot = 0
		// Apply the orthonormality correction to the local coefficients.
		ctx.Charge(sim.Nanoseconds(a.cfg.Platform.FlopNS * float64(2*a.cfg.Points)))
		if a.cfg.Validate {
			for i := range g.coeffs {
				g.coeffs[i] *= msg.Val
			}
		}
		a.gs.ContributeFrom(charm.Idx2(g.s, g.p), 0)
	}
}

// ---- PC behaviour ----

// onPoints is the message-transport arrival entry.
func (c *pcChare) onPoints(ctx *charm.Ctx, s int, data []byte) {
	a := c.app
	// The message version copies the points into the contiguous DGEMM
	// operand buffer (§5.1: "copies the points into a contiguous data
	// buffer and increments a counter").
	ctx.Charge(sim.Nanoseconds(a.cfg.Platform.CopyPerByteNS * float64(a.transferBytes())))
	if a.cfg.Validate {
		buf := make([]byte, len(data))
		copy(buf, data)
		c.slotFor(s, buf)
	}
	c.bump(ctx)
}

// onArrival is the CkDirect callback: a plain function call that only
// counts; no copy, no scheduler (§5.1).
func (c *pcChare) onArrival(ctx *charm.Ctx, s int, backing []byte) {
	c.bump(ctx)
}

func (c *pcChare) bump(ctx *charm.Ctx) {
	a := c.app
	c.got++
	if c.got < c.expected {
		return
	}
	c.got = 0
	// The multiply runs as an enqueued entry method (one scheduler
	// dispatch), exactly as the paper describes for the callback path;
	// for the message transport this is the natural continuation of the
	// final arrival entry.
	if a.cfg.Mode == Msg {
		c.multiply(ctx)
		return
	}
	ctx.EnqueueLocal(func(ctx *charm.Ctx) { c.multiply(ctx) })
}

func (c *pcChare) multiply(ctx *charm.Ctx) {
	a := c.app
	g := a.cfg.Grain
	flops := 2 * float64(g) * float64(g) * float64(2*a.cfg.Points)
	ctx.Charge(sim.Nanoseconds(a.cfg.Platform.FlopNS * flops))
	if a.cfg.Validate {
		// Σ_ij L_i·R_j == (Σ_i L_i)·(Σ_j R_j): the overlap-sum invariant
		// lets validation avoid the full O(g²·points) loop.
		sumL := sumVectors(c.left, 2*a.cfg.Points)
		sumR := sumVectors(c.right, 2*a.cfg.Points)
		c.overlap = dot(sumL, sumR)
	}
	// "After the multiply is complete, the CkDirect_Ready function is
	// called to prepare for the next iteration" (§5.1). Re-arming any
	// earlier would stamp the out-of-band NaN into live operand buffers.
	switch a.cfg.Mode {
	case CkdNaive:
		// Pathological pattern: resume polling immediately, keeping the
		// handles in the queue across every later phase (§5.2).
		for _, h := range c.in {
			a.mgr.Ready(h)
		}
	case Ckd:
		// Optimized pattern: mark now, poll again only when the next PC
		// phase begins.
		for _, h := range c.in {
			a.mgr.ReadyMark(h)
		}
	}
	a.pc.ContributeFrom(charm.Idx3(c.b1, c.b2, c.p), c.overlap)
}

// onOrtho runs on the PC reduction root: the orthonormalization solve
// proxy, then the correction broadcast.
func (a *app) onOrtho(ctx *charm.Ctx, total float64) {
	a.lastOverlap = total
	ctx.Charge(sim.Nanoseconds(a.cfg.Platform.FlopNS * float64(a.cfg.NStates) * float64(a.cfg.NStates)))
	scale := float64(a.cfg.NStates * a.cfg.NStates * a.cfg.Points)
	a.lambda = 1 / math.Sqrt(1+math.Abs(total)/scale*1e-3)
	ctx.Broadcast(a.pc, a.correctionEP, &charm.Message{Size: 16, Val: a.lambda})
}

// onCorrection applies the correction on a PC and returns the updated
// data to the left-block GS elements (regular messages in every variant,
// as in the paper).
func (c *pcChare) onCorrection(ctx *charm.Ctx, lambda float64) {
	a := c.app
	ctx.Charge(sim.Nanoseconds(a.cfg.Platform.FlopNS * float64(a.cfg.Grain) * float64(2*a.cfg.Points)))
	for i := 0; i < a.cfg.Grain; i++ {
		s := c.b1*a.cfg.Grain + i
		ctx.Send(a.gs, charm.Idx2(s, c.p), a.backEP, &charm.Message{
			Size: a.transferBytes(),
			Val:  lambda,
		})
	}
}

// checksum sums the GS coefficients this process hosts (validate mode).
// Under sim and real that is the whole array; under net each rank's
// non-hosted mirrors hold no coefficients.
func (a *app) checksum() float64 {
	if !a.cfg.Validate {
		return 0
	}
	s := 0.0
	for st := 0; st < a.cfg.NStates; st++ {
		for p := 0; p < a.cfg.NPlanes; p++ {
			g := a.gs.Obj(charm.Idx2(st, p)).(*gsChare)
			if !a.rts.HostsPE(g.pe) {
				continue
			}
			for _, v := range g.coeffs {
				s += v
			}
		}
	}
	return s
}

// gather returns one coefficient sum per (state, plane) element in
// linearized order, NaN for elements this process does not host — the
// vector the cross-backend and cross-rank oracles compare bit for bit.
func (a *app) gather() []float64 {
	out := make([]float64, a.cfg.NStates*a.cfg.NPlanes)
	for st := 0; st < a.cfg.NStates; st++ {
		for p := 0; p < a.cfg.NPlanes; p++ {
			g := a.gs.Obj(charm.Idx2(st, p)).(*gsChare)
			lin := st*a.cfg.NPlanes + p
			if !a.rts.HostsPE(g.pe) {
				out[lin] = math.NaN()
				continue
			}
			s := 0.0
			for _, v := range g.coeffs {
				s += v
			}
			out[lin] = s
		}
	}
	return out
}

func seedCoeff(s, p, i int) float64 {
	return float64((s*131+p*17+i*7)%211)/211 - 0.5
}

func encodeCoeffs(coeffs []float64, out []byte) {
	for i, v := range coeffs {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
}

func decodeAt(b []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
}

func sumVectors(vecs [][]byte, n int) []float64 {
	out := make([]float64, n)
	for _, v := range vecs {
		for i := 0; i < n; i++ {
			out[i] += decodeAt(v, i)
		}
	}
	return out
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
