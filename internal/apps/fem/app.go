package fem

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/apps"
	"repro/internal/charm"
	"repro/internal/ckdirect"
	"repro/internal/sim"
)

const oobPattern uint64 = 0x7FF8FE11FE110001

type app struct {
	cfg  Config
	mesh *Mesh
	part *Partition
	grid [2]int
	d    *apps.Driver
	rts  *charm.RTS
	mgr  *ckdirect.Manager
	arr  *charm.Array

	iterEP, partialEP charm.EP
	chares            []*chare
	lastResidual      float64
	totalIters        int
	channels          int
}

// contributor identifies one source of a shared vertex's sum: the owning
// part (for ordering) and where to read the value.
type contributor struct {
	part int
	nb   int // -1 for the local partial
	slot int // index into the neighbour's shared-vertex list
}

type chare struct {
	app  *app
	part int
	pe   int

	elems  [][3]int // local connectivity, local vertex ids
	nVerts int
	gids   []int // local -> global vertex id

	nbrs      []int         // neighbour parts, ascending
	sharedOut map[int][]int // per neighbour: shared verts as local ids

	// Validate-mode data, where the part's storage is real (see seed).
	u, acc []float64
	deg    []float64
	plan   [][]contributor

	sendBuf map[int][]byte
	recvVal map[int][]float64
	in, out map[int]*ckdirect.Handle

	got  int
	sent bool
}

// Pup checkpoints the part's state: the vertex values. acc is
// per-iteration scratch, the staging buffers are re-filled on the next
// exchange, and got/sent are zero at every barrier cut.
func (c *chare) Pup(p charm.Puper) {
	p.Float64s(&c.u)
}

func (a *app) build(d *apps.Driver) *charm.Array {
	a.d, a.rts, a.mgr = d, d.RTS, d.Mgr
	a.totalIters = a.cfg.Warmup + a.cfg.Iters + 1
	parts := a.part.Parts
	a.arr = a.rts.NewArray("fem", func(ix charm.Index) int {
		return ix[0] * a.cfg.PEs / parts
	})

	for p := 0; p < parts; p++ {
		c := a.buildChare(p)
		a.chares = append(a.chares, c)
		a.arr.Insert(charm.Idx1(p), c)
	}

	a.iterEP = a.arr.EntryMethod("iterate", func(ctx *charm.Ctx, msg *charm.Message) {
		ctx.Obj().(*chare).iterate(ctx)
	})
	a.partialEP = a.arr.EntryMethod("partial", func(ctx *charm.Ctx, msg *charm.Message) {
		ctx.Obj().(*chare).onPartial(ctx, msg.Tag, msg.Data)
	})
	if a.cfg.Mode == Ckd {
		a.buildChannels()
	}
	return a.arr
}

// iterateAll broadcasts one iteration to every part.
func (a *app) iterateAll(ctx *charm.Ctx) {
	ctx.Broadcast(a.arr, a.iterEP, &charm.Message{Size: 8})
}

func (a *app) buildChare(p int) *chare {
	mesh, part := a.mesh, a.part
	c := &chare{app: a, part: p, pe: p * a.cfg.PEs / part.Parts}
	c.gids = part.PartVerts[p]
	c.nVerts = len(c.gids)
	lidx := make(map[int]int, c.nVerts)
	for l, g := range c.gids {
		lidx[g] = l
	}
	for _, e := range part.PartElems[p] {
		ge := mesh.Elems[e]
		c.elems = append(c.elems, [3]int{lidx[ge[0]], lidx[ge[1]], lidx[ge[2]]})
	}
	c.nbrs = part.Neighbours(p)
	c.sharedOut = make(map[int][]int, len(c.nbrs))
	c.sendBuf = make(map[int][]byte, len(c.nbrs))
	c.recvVal = make(map[int][]float64, len(c.nbrs))
	for _, nb := range c.nbrs {
		shared := part.Shared[[2]int{p, nb}]
		locals := make([]int, len(shared))
		for i, g := range shared {
			locals[i] = lidx[g]
		}
		c.sharedOut[nb] = locals
		c.sendBuf[nb] = a.d.Bytes(c.pe, len(shared)*8)
	}
	if a.cfg.Validate && a.d.Storage(c.pe) == apps.Real {
		c.seed()
	}
	return c
}

// seed allocates and seeds the validate-mode data of a part whose
// storage is real (apps.Driver.Storage): its vertex values, scratch,
// degrees and combination plan.
func (c *chare) seed() {
	mesh, part := c.app.mesh, c.app.part
	c.u = make([]float64, c.nVerts)
	c.acc = make([]float64, c.nVerts)
	c.deg = make([]float64, c.nVerts)
	for l, g := range c.gids {
		c.u[l] = seedVertex(g)
		c.deg[l] = float64(mesh.Degree[g])
	}
	// Per-vertex combination plan: every contributing part in ascending
	// order, with the slot to read its partial from.
	c.plan = make([][]contributor, c.nVerts)
	for l, g := range c.gids {
		var cs []contributor
		cs = append(cs, contributor{part: c.part, nb: -1})
		for _, nb := range c.nbrs {
			shared := part.Shared[[2]int{c.part, nb}]
			if i := sort.SearchInts(shared, g); i < len(shared) && shared[i] == g {
				cs = append(cs, contributor{part: nb, nb: nb, slot: i})
			}
		}
		sort.Slice(cs, func(i, j int) bool { return cs[i].part < cs[j].part })
		c.plan[l] = cs
	}
}

// buildChannels wires one CkDirect channel per (part, neighbour) pair.
func (a *app) buildChannels() {
	for _, c := range a.chares {
		c.in = make(map[int]*ckdirect.Handle, len(c.nbrs))
		c.out = make(map[int]*ckdirect.Handle, len(c.nbrs))
	}
	// Receivers create handles.
	for _, c := range a.chares {
		c := c
		for _, nb := range c.nbrs {
			nb := nb
			size := len(c.app.part.Shared[[2]int{nb, c.part}]) * 8
			backing := a.d.Bytes(c.pe, size)
			h, err := a.mgr.CreateHandle(c.pe, a.d.Region(c.pe, size, backing), oobPattern, func(ctx *charm.Ctx) {
				c.onPartial(ctx, nb, backing)
			})
			if err != nil {
				panic(err)
			}
			c.in[nb] = h
			a.channels++
		}
	}
	// Senders associate.
	for _, c := range a.chares {
		for _, nb := range c.nbrs {
			peer := a.arr.Obj(charm.Idx1(nb)).(*chare)
			h := peer.in[c.part]
			region := a.d.Region(c.pe, len(c.sharedOut[nb])*8, c.sendBuf[nb])
			if err := a.mgr.AssocLocal(h, c.pe, region); err != nil {
				panic(err)
			}
			c.out[nb] = h
		}
	}
}

// iterate runs the local element accumulation and ships the boundary
// partials.
func (c *chare) iterate(ctx *charm.Ctx) {
	a := c.app
	// Charged per element: assembling and applying a 3x3 local stiffness
	// block (~60 flops) — the simulation's Laplacian kernel computes only
	// the data-dependence-relevant part of it.
	ctx.Charge(sim.Nanoseconds(a.cfg.Platform.FlopNS * 60 * float64(len(c.elems))))
	if a.cfg.Validate {
		for i := range c.acc {
			c.acc[i] = 0
		}
		for _, e := range c.elems {
			accLocal(c.u, c.acc, e)
		}
	}
	for _, nb := range c.nbrs {
		size := len(c.sharedOut[nb]) * 8
		if a.cfg.Validate {
			buf := c.sendBuf[nb]
			for i, l := range c.sharedOut[nb] {
				binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(c.acc[l]))
			}
		}
		if a.cfg.Mode == Msg {
			ctx.Send(a.arr, charm.Idx1(nb), a.partialEP, &charm.Message{
				Size: size,
				Data: c.sendBuf[nb],
				Tag:  c.part,
			})
		} else {
			if err := a.mgr.Put(c.out[nb]); err != nil {
				panic(err)
			}
		}
	}
	c.sent = true
	c.maybeUpdate(ctx)
}

func accLocal(u, acc []float64, elem [3]int) {
	for i := 0; i < 3; i++ {
		x, y := elem[i], elem[(i+1)%3]
		acc[x] += u[y] - u[x]
		acc[y] += u[x] - u[y]
	}
}

// onPartial records a neighbour's boundary partial.
func (c *chare) onPartial(ctx *charm.Ctx, nb int, data []byte) {
	if c.app.cfg.Validate {
		vals := make([]float64, len(data)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
		}
		c.recvVal[nb] = vals
	}
	c.got++
	c.maybeUpdate(ctx)
}

// maybeUpdate applies the explicit step once the local accumulation is
// done (sent) and every neighbour partial has arrived; partials combine
// in ascending part order so every part holds bit-identical shared
// values.
func (c *chare) maybeUpdate(ctx *charm.Ctx) {
	a := c.app
	if !c.sent || c.got < len(c.nbrs) {
		return
	}
	c.sent = false
	c.got = 0
	ctx.Charge(sim.Nanoseconds(a.cfg.Platform.FlopNS * 3 * float64(c.nVerts)))
	residual := 0.0
	if a.cfg.Validate {
		for l := 0; l < c.nVerts; l++ {
			sum := 0.0
			for _, contrib := range c.plan[l] {
				if contrib.nb < 0 {
					sum += c.acc[l]
				} else {
					sum += c.recvVal[contrib.nb][contrib.slot]
				}
			}
			delta := a.cfg.DT * sum / c.deg[l]
			c.u[l] += delta
			residual += math.Abs(delta)
		}
	}
	if a.cfg.Mode == Ckd {
		for _, nb := range c.nbrs {
			a.mgr.Ready(c.in[nb])
		}
	}
	a.arr.ContributeFrom(charm.Idx1(c.part), 1, residual)
}

// gather assembles the global vertex field from the first hosted copy
// of each vertex (sharedConsistent checks the others) when a caller
// first reads Result.Field. Under the net
// backend only hosted parts hold live data; the other vertices are
// marked NaN so a comparison cannot silently pass on never-computed
// values.
func (a *app) gather() []float64 {
	out := make([]float64, a.mesh.NumVerts)
	seen := make([]bool, a.mesh.NumVerts)
	if a.cfg.Backend == charm.NetBackend {
		for i := range out {
			out[i] = math.NaN()
		}
	}
	for _, c := range a.chares {
		if !a.rts.HostsPE(c.pe) {
			continue
		}
		for l, g := range c.gids {
			if !seen[g] {
				seen[g] = true
				out[g] = c.u[l]
			}
		}
	}
	return out
}

// sharedConsistent verifies that every part holds the same value for
// every shared vertex (Run reports a disagreement as an error). Under
// the net backend the check covers the hosted parts — a remote part's
// copy is checked by its own rank against the same serial reference.
func (a *app) sharedConsistent() bool {
	vals := make(map[int]float64)
	for _, c := range a.chares {
		if !a.rts.HostsPE(c.pe) {
			continue
		}
		for l, g := range c.gids {
			if v, ok := vals[g]; ok {
				if v != c.u[l] {
					return false
				}
			} else {
				vals[g] = c.u[l]
			}
		}
	}
	return true
}

// shape is every input of the fem serial reference: the mesh and its
// partition follow from the quad grid and the part grid.
type shape struct {
	nx, ny, gx, gy int
	dt             float64
	iters          int
}

// oracle caches SerialReference for the last shape a net run validated.
var oracle apps.Oracle[shape]

// reference is SerialReference for this run's shape through the cache;
// the slice is shared and read-only.
func (a *app) reference() []float64 {
	k := shape{a.cfg.NX, a.cfg.NY, a.grid[0], a.grid[1], a.cfg.DT, a.totalIters}
	return oracle.Get(k, func() []float64 {
		return SerialReference(a.mesh, a.part, a.cfg.DT, a.totalIters)
	})
}

// validateLocal checks the hosted parts' vertex values against the
// serial reference — the distributed backend's validation path, where
// no single process holds the whole field but every process shares the
// oracle.
func (a *app) validateLocal() []error {
	ref := a.reference()
	var errs []error
	for _, c := range a.chares {
		if !a.rts.HostsPE(c.pe) {
			continue
		}
		for l, g := range c.gids {
			if c.u[l] != ref[g] {
				errs = append(errs, fmt.Errorf(
					"fem: part %d vertex %d = %v, serial reference %v",
					c.part, g, c.u[l], ref[g]))
				if len(errs) >= 5 {
					return errs
				}
			}
		}
	}
	return errs
}
