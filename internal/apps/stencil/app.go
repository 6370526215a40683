package stencil

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/charm"
	"repro/internal/ckdirect"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Face directions. opposite(d) == d^1.
const (
	xp = iota
	xm
	yp
	ym
	zp
	zm
	nDirs
)

var dirDelta = [nDirs][3]int{
	{1, 0, 0}, {-1, 0, 0},
	{0, 1, 0}, {0, -1, 0},
	{0, 0, 1}, {0, 0, -1},
}

func opposite(d int) int { return d ^ 1 }

// oobPattern is a NaN payload no finite Jacobi value ever encodes.
const oobPattern uint64 = 0x7FF8DEADF00D0001

type app struct {
	cfg  Config
	grid [3]int
	d    *apps.Driver
	rts  *charm.RTS
	mgr  *ckdirect.Manager
	arr  *charm.Array

	iterEP, faceEP charm.EP
	chares         []*chare

	lastResidual float64
	totalIters   int
}

type chare struct {
	app *app
	idx charm.Index
	pe  int

	bx, by, bz    int // interior extent
	gx0, gy0, gz0 int // global origin

	neighbors [nDirs]bool
	nNbr      int
	hot       bool // in the skewed (artificially loaded) half

	// Validate-mode field data (nil in model mode).
	cur, next []float64

	// Per-direction face buffers. faceOut is what this chare sends; in
	// CKD mode it is the registered source region's storage. faceVals
	// holds the decoded incoming ghost values (validate mode, allocated
	// at build for every neighbour), and zero is one z-line of zeros the
	// kernel reads across an x or y Dirichlet boundary.
	faceOut  [nDirs][]byte
	faceVals [nDirs][]float64
	zero     []float64

	sendRegions [nDirs]*machine.Region
	recvRegions [nDirs]*machine.Region
	inHandles   [nDirs]*ckdirect.Handle // channels delivering into this chare
	outHandles  [nDirs]*ckdirect.Handle // channels this chare puts on

	got  int
	sent bool
}

// split computes the extent and offset of part idx when n cells are
// divided over parts blocks as evenly as possible.
func split(n, parts, idx int) (size, offset int) {
	base, rem := n/parts, n%parts
	size = base
	if idx < rem {
		size++
	}
	offset = idx*base + minInt(idx, rem)
	return
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func (a *app) lin(i, j, k int) int {
	return i + a.grid[0]*(j+a.grid[1]*k)
}

func (a *app) peOf(ix charm.Index) int {
	total := a.grid[0] * a.grid[1] * a.grid[2]
	return a.lin(ix[0], ix[1], ix[2]) * a.cfg.PEs / total
}

// faceDims gives the 2-D extent of a face in direction d.
func (c *chare) faceDims(d int) (int, int) {
	switch d {
	case xp, xm:
		return c.by, c.bz
	case yp, ym:
		return c.bx, c.bz
	default:
		return c.bx, c.by
	}
}

func (c *chare) faceBytes(d int) int {
	u, v := c.faceDims(d)
	return u * v * 8
}

func (a *app) build(drv *apps.Driver) *charm.Array {
	a.d, a.rts, a.mgr = drv, drv.RTS, drv.Mgr
	a.totalIters = a.cfg.Warmup + a.cfg.Iters + 1
	a.arr = a.rts.NewArray("stencil", a.peOf)
	cx, cy, cz := a.grid[0], a.grid[1], a.grid[2]
	for k := 0; k < cz; k++ {
		for j := 0; j < cy; j++ {
			for i := 0; i < cx; i++ {
				c := &chare{app: a, idx: charm.Idx3(i, j, k)}
				c.bx, c.gx0 = split(a.cfg.NX, cx, i)
				c.by, c.gy0 = split(a.cfg.NY, cy, j)
				c.bz, c.gz0 = split(a.cfg.NZ, cz, k)
				c.pe = a.peOf(c.idx)
				c.hot = a.cfg.Skew > 0 && 2*a.lin(i, j, k) < cx*cy*cz
				for d := 0; d < nDirs; d++ {
					ni := i + dirDelta[d][0]
					nj := j + dirDelta[d][1]
					nk := k + dirDelta[d][2]
					if ni >= 0 && ni < cx && nj >= 0 && nj < cy && nk >= 0 && nk < cz {
						c.neighbors[d] = true
						c.nNbr++
					}
				}
				if a.cfg.Validate {
					c.allocField()
					c.initField()
				}
				a.chares = append(a.chares, c)
				a.arr.Insert(c.idx, c)
			}
		}
	}

	a.iterEP = a.arr.EntryMethod("iterate", func(ctx *charm.Ctx, msg *charm.Message) {
		ctx.Obj().(*chare).iterate(ctx)
	})
	a.faceEP = a.arr.EntryMethod("face", func(ctx *charm.Ctx, msg *charm.Message) {
		c := ctx.Obj().(*chare)
		c.onFace(ctx, msg.Tag, msg.Data)
	})
	if a.cfg.Mode == Ckd {
		a.buildChannels()
	}
	return a.arr
}

// onMigrate follows one chare to its new PE: placement bookkeeping plus
// rehoming the six CkDirect channels touching it. Called on every rank
// for every move (SPMD, like the location update itself); done fires
// once the receive-side rehomes — which chain through scheduler tasks
// on live backends — have all completed.
func (a *app) onMigrate(array int, idx charm.Index, from, to int, done func()) {
	c := a.arr.Obj(idx).(*chare)
	c.pe = to
	if a.mgr == nil || c.nNbr == 0 {
		done()
		return
	}
	var mu sync.Mutex
	left := c.nNbr
	sub := func() {
		mu.Lock()
		left--
		fin := left == 0
		mu.Unlock()
		if fin {
			done()
		}
	}
	for d := 0; d < nDirs; d++ {
		if !c.neighbors[d] {
			continue
		}
		a.mgr.RehomeSend(c.outHandles[d], to)
		a.mgr.RehomeRecv(c.inHandles[d], to, sub)
	}
}

// buildChannels wires one CkDirect channel per (chare, incoming face):
// the receiver creates the handle over its face buffer; the neighbour
// associates its matching outgoing face buffer.
func (a *app) buildChannels() {
	mach := a.rts.Machine()
	virtual := !a.cfg.Validate && a.cfg.Backend == charm.SimBackend
	// Pass 1: receivers create handles.
	for _, c := range a.chares {
		c := c
		for d := 0; d < nDirs; d++ {
			if !c.neighbors[d] {
				continue
			}
			d := d
			// The region owns its storage (the face is only ever read
			// through region.Bytes()), so on the net backend CkDirect may
			// move it into a shm arena and the neighbour's puts land
			// there directly.
			region := mach.AllocRegion(c.pe, c.faceBytes(d), virtual)
			c.recvRegions[d] = region
			h, err := a.mgr.CreateHandle(c.pe, region, oobPattern, func(ctx *charm.Ctx) {
				c.onFace(ctx, d, region.Bytes())
			})
			if err != nil {
				panic(err)
			}
			c.inHandles[d] = h
		}
	}
	// Pass 2: senders associate their outgoing buffers.
	for _, c := range a.chares {
		for d := 0; d < nDirs; d++ {
			if !c.neighbors[d] {
				continue
			}
			nb := a.neighborOf(c, d)
			h := nb.inHandles[opposite(d)]
			size := c.faceBytes(d)
			var region *machine.Region
			if virtual {
				region = mach.AllocRegion(c.pe, size, true)
			} else {
				c.faceOut[d] = make([]byte, size)
				region = mach.WrapRegion(c.pe, c.faceOut[d])
			}
			c.sendRegions[d] = region
			if err := a.mgr.AssocLocal(h, c.pe, region); err != nil {
				panic(err)
			}
			c.outHandles[d] = h
		}
	}
}

func (a *app) neighborOf(c *chare, d int) *chare {
	ni := c.idx[0] + dirDelta[d][0]
	nj := c.idx[1] + dirDelta[d][1]
	nk := c.idx[2] + dirDelta[d][2]
	return a.arr.Obj(charm.Idx3(ni, nj, nk)).(*chare)
}

// iterateAll broadcasts one iteration to every chare.
func (a *app) iterateAll(ctx *charm.Ctx) {
	ctx.Broadcast(a.arr, a.iterEP, &charm.Message{Size: 8})
}

// Pup checkpoints the chare's state: the current field. next is
// per-iteration scratch, faceVals are re-decoded on the next arrival,
// and got/sent are zero at every barrier cut.
func (c *chare) Pup(p charm.Puper) {
	p.Float64s(&c.cur)
}

// iterate begins one iteration on a chare: extract the boundary faces of
// the current field and ship them to the neighbours.
func (c *chare) iterate(ctx *charm.Ctx) {
	a := c.app
	for d := 0; d < nDirs; d++ {
		if !c.neighbors[d] {
			continue
		}
		if a.cfg.Validate {
			if a.cfg.Mode == Ckd {
				c.extractFace(d, c.faceOut[d])
			} else {
				buf := make([]byte, c.faceBytes(d))
				c.extractFace(d, buf)
				c.faceOut[d] = buf
			}
		}
		nb := a.neighborOf(c, d)
		switch a.cfg.Mode {
		case Msg:
			ctx.Send(a.arr, nb.idx, a.faceEP, &charm.Message{
				Size: c.faceBytes(d),
				Data: c.faceOut[d],
				Tag:  opposite(d),
			})
		case Ckd:
			if err := a.mgr.Put(c.outHandles[d]); err != nil {
				panic(err)
			}
		}
	}
	c.sent = true
	c.maybeCompute(ctx)
}

// maybeCompute fires the update once this chare has both received every
// ghost face and extracted/sent its own faces for the iteration. The
// second condition matters: CkDirect callbacks bypass the scheduler, so
// a fast neighbour's put can arrive before this chare's own iterate
// broadcast — computing then would update the field before the outgoing
// faces were extracted, shipping next-iteration data to the neighbour.
func (c *chare) maybeCompute(ctx *charm.Ctx) {
	if !c.sent || c.got < c.nNbr {
		return
	}
	c.sent = false
	c.got = 0
	c.computeAndBarrier(ctx)
}

// onFace decodes an arrived ghost face into the chare's own buffer and
// fires the compute phase when the halo is complete. Overwriting
// faceVals[d] is safe: a neighbour sends its next face only after the
// barrier that follows this chare's contribution, and this chare
// contributes only after its compute has consumed the current face.
func (c *chare) onFace(ctx *charm.Ctx, d int, data []byte) {
	if c.app.cfg.Validate {
		decodeFace(c.faceVals[d], data)
	}
	c.got++
	c.maybeCompute(ctx)
}

func (c *chare) computeAndBarrier(ctx *charm.Ctx) {
	a := c.app
	elems := c.bx * c.by * c.bz
	ctx.Charge(sim.Nanoseconds(a.cfg.Platform.StencilPerElementNS * float64(elems)))
	if c.hot {
		// Artificial imbalance: the hot half wastes Skew times extra
		// compute. Charged under sim, spun under the live backends
		// (Charge is a no-op there), and accounted to the balancer
		// explicitly — the compute may run inside a CkDirect arrival
		// callback, which the dispatch meter never sees.
		extra := sim.Nanoseconds(a.cfg.Platform.StencilPerElementNS * a.cfg.Skew * float64(elems))
		ctx.Charge(extra)
		if a.cfg.Backend != charm.SimBackend {
			spinFor(extra)
		}
		if a.d.LB != nil {
			a.d.LB.Account(a.arr.Ord(), c.idx, c.pe, extra)
		}
	}
	residual := 0.0
	if a.cfg.Validate {
		residual = c.jacobi()
		c.cur, c.next = c.next, c.cur
	}
	if a.cfg.Mode == Ckd {
		for d := 0; d < nDirs; d++ {
			if c.neighbors[d] {
				// Single-phase application: mark and resume polling
				// together (the paper's plain CkDirect_ready).
				a.mgr.Ready(c.inHandles[d])
			}
		}
	}
	a.arr.ContributeFrom(c.idx, 1, residual)
}

// spinFor burns real CPU for roughly d — the live backends' stand-in
// for Charge, whose modelled cost they ignore.
func spinFor(d sim.Time) {
	deadline := time.Now().Add(time.Duration(d))
	for time.Now().Before(deadline) {
	}
}

// allocField allocates the validate-mode buffers: the field, its
// next-iteration scratch, one decoded face per neighbour and the zero
// line.
func (c *chare) allocField() {
	c.cur = make([]float64, c.bx*c.by*c.bz)
	c.next = make([]float64, c.bx*c.by*c.bz)
	for d := 0; d < nDirs; d++ {
		if c.neighbors[d] {
			c.faceVals[d] = make([]float64, c.faceBytes(d)/8)
		}
	}
	c.zero = make([]float64, c.bz)
}

// initField seeds the interior with a deterministic pattern shared with
// the serial reference.
func (c *chare) initField() {
	i := 0
	for x := 0; x < c.bx; x++ {
		for y := 0; y < c.by; y++ {
			for z := 0; z < c.bz; z++ {
				c.cur[i] = seedValue(c.gx0+x, c.gy0+y, c.gz0+z)
				i++
			}
		}
	}
}

// seedValue is the shared initial condition.
func seedValue(gx, gy, gz int) float64 {
	return float64((gx*31+gy*17+gz*7)%997) / 997
}

func (a *app) fieldSum() float64 {
	if !a.cfg.Validate {
		return 0
	}
	s := 0.0
	for _, c := range a.chares {
		if !a.rts.HostsPE(c.pe) {
			continue // net backend: this rank never ran the chare
		}
		for _, v := range c.cur {
			s += v
		}
	}
	return s
}

// validateLocal checks the hosted chares' final field against the serial
// reference — the distributed backend's validation path, where no single
// process holds the whole domain but every process shares the oracle.
func (a *app) validateLocal() []error {
	ref := reference(a.cfg.NX, a.cfg.NY, a.cfg.NZ, a.totalIters)
	var errs []error
	for _, c := range a.chares {
		if !a.rts.HostsPE(c.pe) {
			continue
		}
		i := 0
		for x := 0; x < c.bx; x++ {
			for y := 0; y < c.by; y++ {
				for z := 0; z < c.bz; z++ {
					gx, gy, gz := c.gx0+x, c.gy0+y, c.gz0+z
					want := ref[(gx*a.cfg.NY+gy)*a.cfg.NZ+gz]
					if c.cur[i] != want {
						errs = append(errs, fmt.Errorf(
							"stencil: cell (%d,%d,%d) = %v, serial reference %v",
							gx, gy, gz, c.cur[i], want))
						if len(errs) >= 5 {
							return errs
						}
					}
					i++
				}
			}
		}
	}
	return errs
}

// GatherField assembles the full field from a validate-mode run (tests).
// Under the net backend only hosted chares hold live data; the rest of
// the domain is marked NaN so a comparison cannot silently pass on
// never-computed cells.
func gatherField(a *app) []float64 {
	out := make([]float64, a.cfg.NX*a.cfg.NY*a.cfg.NZ)
	if a.cfg.Backend == charm.NetBackend {
		for i := range out {
			out[i] = math.NaN()
		}
	}
	for _, c := range a.chares {
		if !a.rts.HostsPE(c.pe) {
			continue
		}
		i := 0
		for x := 0; x < c.bx; x++ {
			for y := 0; y < c.by; y++ {
				for z := 0; z < c.bz; z++ {
					gx, gy, gz := c.gx0+x, c.gy0+y, c.gz0+z
					out[(gx*a.cfg.NY+gy)*a.cfg.NZ+gz] = c.cur[i]
					i++
				}
			}
		}
	}
	return out
}
