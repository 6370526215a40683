package matmul

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/apps"
	"repro/internal/charm"
	"repro/internal/ckdirect"
	"repro/internal/linalg"
	"repro/internal/sim"
)

const oobPattern uint64 = 0x7FF8C0FFEE000001

// Shard kinds for message tags.
const (
	kindA = iota
	kindB
	kindC
)

type app struct {
	cfg  Config
	grid [3]int
	d    *apps.Driver
	rts  *charm.RTS
	mgr  *ckdirect.Manager
	arr  *charm.Array

	iterEP, shardEP charm.EP
	chares          []*chare

	// Block geometry (elements).
	rowsA, colsA int // A block: N/gx x N/gz
	rowsB, colsB int // B block: N/gz x N/gy
	rowsC, colsC int // C block: N/gx x N/gy
	shardARows   int // rowsA / gy
	shardBRows   int // rowsB / gx
	stripRows    int // rowsC / gz
}

type chare struct {
	app     *app
	idx     charm.Index // (x, y, z)
	pe      int
	x, y, z int

	// Assembled blocks, where the chare's storage is real (the live
	// backends move actual bytes even in model mode; see allocData).
	aBuf, bBuf []byte
	// Outgoing shards: one buffer for A (fanned out to gy-1 handles), one
	// for B (gx-1 handles), and per-destination C strips.
	aShard, bShard []byte
	cStripsOut     [][]byte
	// Incoming C strips staged per source z, accumulated after compute.
	cStageIn [][]byte
	// cAccum is this chare's final strip of C.
	cAccum []float64

	// CkDirect channels.
	aIn, bIn, cIn    []*ckdirect.Handle // my incoming channels (indexed by source coord)
	aOut, bOut, cOut []*ckdirect.Handle // channels I put on (indexed by dest coord)

	recvA, recvB, recvC int
	computed            bool
	// cGot stages arrived C strips by source z; the accumulation into
	// cAccum happens in maybeFinish in ascending-z order so the FP sum is
	// identical whatever order strips arrive in — the property that makes
	// validate-mode results comparable across the sim and real backends.
	cGot [][]byte
	// pendingCAdds counts strips that arrived before this chare's compute;
	// their accumulation CPU is charged when the compute fires, matching
	// where the work would run.
	pendingCAdds int
}

func (a *app) build(d *apps.Driver) *charm.Array {
	a.d, a.rts, a.mgr = d, d.RTS, d.Mgr
	gx, gy, gz := a.grid[0], a.grid[1], a.grid[2]
	n := a.cfg.N
	a.rowsA, a.colsA = n/gx, n/gz
	a.rowsB, a.colsB = n/gz, n/gy
	a.rowsC, a.colsC = n/gx, n/gy
	a.shardARows = a.rowsA / gy
	a.shardBRows = a.rowsB / gx
	a.stripRows = a.rowsC / gz

	a.arr = a.rts.NewArray("matmul", func(ix charm.Index) int {
		lin := ix[0] + gx*(ix[1]+gy*ix[2])
		return lin * a.cfg.PEs / (gx * gy * gz)
	})
	for z := 0; z < gz; z++ {
		for y := 0; y < gy; y++ {
			for x := 0; x < gx; x++ {
				c := &chare{app: a, idx: charm.Idx3(x, y, z), x: x, y: y, z: z}
				c.pe = a.arr.PEOf(c.idx)
				c.cStripsOut = make([][]byte, gz)
				if d.Storage(c.pe) == apps.Real {
					c.allocData()
				}
				a.chares = append(a.chares, c)
				a.arr.Insert(c.idx, c)
			}
		}
	}

	a.iterEP = a.arr.EntryMethod("iterate", func(ctx *charm.Ctx, msg *charm.Message) {
		ctx.Obj().(*chare).iterate(ctx)
	})
	a.shardEP = a.arr.EntryMethod("shard", func(ctx *charm.Ctx, msg *charm.Message) {
		c := ctx.Obj().(*chare)
		kind := msg.Tag & 0xF
		src := msg.Tag >> 4
		c.onShard(ctx, kind, src, msg.Data, msg.Size)
	})
	if a.cfg.Mode == Ckd {
		a.buildChannels()
	}
	return a.arr
}

// iterateAll broadcasts one multiply to every chare.
func (a *app) iterateAll(ctx *charm.Ctx) {
	ctx.Broadcast(a.arr, a.iterEP, &charm.Message{Size: 8})
}

// Pup checkpoints the chare's state: the accumulated strip of C. The
// A/B shards and assemblies are reconstructed by allocData (the shards
// never change across iterations), counters and staging are zero at
// every barrier cut, and the registered CkDirect buffers travel with
// the region snapshot.
func (c *chare) Pup(p charm.Puper) {
	p.Float64s(&c.cAccum)
}

// Element addressing into the global matrices for validation.

// seedA and seedB define the deterministic inputs.
func seedA(i, j int) float64 { return float64((i*7+j*3)%13) / 13 }
func seedB(i, j int) float64 { return float64((i*5+j*11)%17) / 17 }

// allocData allocates and seeds a chare whose storage is real
// (apps.Driver.Storage): its assemblies, its owned A and B shards, its
// strip of C and its outgoing C strips.
func (c *chare) allocData() {
	a := c.app
	c.aBuf = make([]byte, a.rowsA*a.colsA*8)
	c.bBuf = make([]byte, a.rowsB*a.colsB*8)
	c.aShard = make([]byte, a.shardARows*a.colsA*8)
	c.bShard = make([]byte, a.shardBRows*a.colsB*8)
	c.cAccum = make([]float64, a.stripRows*a.colsC)
	for dz := 0; dz < a.grid[2]; dz++ {
		if dz != c.z {
			c.cStripsOut[dz] = make([]byte, a.cStripBytes())
		}
	}

	// Fill the owned shards from the global seeds. A shard: rows
	// [x*rowsA + y*shardARows, ...), cols [z*colsA, ...).
	for r := 0; r < a.shardARows; r++ {
		gi := c.x*a.rowsA + c.y*a.shardARows + r
		for j := 0; j < a.colsA; j++ {
			putF64(c.aShard, r*a.colsA+j, seedA(gi, c.z*a.colsA+j))
		}
	}
	// B shard: rows [z*rowsB + x*shardBRows, ...), cols [y*colsB, ...).
	for r := 0; r < a.shardBRows; r++ {
		gi := c.z*a.rowsB + c.x*a.shardBRows + r
		for j := 0; j < a.colsB; j++ {
			putF64(c.bShard, r*a.colsB+j, seedB(gi, c.y*a.colsB+j))
		}
	}
	// Place own shards into the assemblies once; peers' slots are filled
	// by communication every iteration.
	copy(c.aSlot(c.y), c.aShard)
	copy(c.bSlot(c.x), c.bShard)
}

// aSlot returns the assembly slice where the shard from source y' lands
// (nil where the chare's storage is not real).
func (c *chare) aSlot(srcY int) []byte {
	a := c.app
	if c.aBuf == nil {
		return nil
	}
	start := srcY * a.shardARows * a.colsA * 8
	return c.aBuf[start : start+a.shardARows*a.colsA*8]
}

// bSlot returns the assembly slice for the shard from source x' (nil
// where the chare's storage is not real).
func (c *chare) bSlot(srcX int) []byte {
	a := c.app
	if c.bBuf == nil {
		return nil
	}
	start := srcX * a.shardBRows * a.colsB * 8
	return c.bBuf[start : start+a.shardBRows*a.colsB*8]
}

func (a *app) aShardBytes() int { return a.shardARows * a.colsA * 8 }
func (a *app) bShardBytes() int { return a.shardBRows * a.colsB * 8 }
func (a *app) cStripBytes() int { return a.stripRows * a.colsC * 8 }

// buildChannels wires the persistent CkDirect channels: A shards land
// directly in the destination's assembly slot, B shards likewise, C
// strips land in per-source staging buffers. Every region wraps the
// chare's own buffers where its storage is real and carries sizes only
// elsewhere (apps.Driver.Region).
func (a *app) buildChannels() {
	gx, gy, gz := a.grid[0], a.grid[1], a.grid[2]
	// Receivers create handles.
	for _, c := range a.chares {
		c := c
		c.aIn = make([]*ckdirect.Handle, gy)
		c.bIn = make([]*ckdirect.Handle, gx)
		c.cIn = make([]*ckdirect.Handle, gz)
		c.cStageIn = make([][]byte, gz)
		for sy := 0; sy < gy; sy++ {
			if sy == c.y {
				continue
			}
			h, err := a.mgr.CreateHandle(c.pe, a.d.Region(c.pe, a.aShardBytes(), c.aSlot(sy)), oobPattern,
				func(ctx *charm.Ctx) { c.onShard(ctx, kindA, -1, nil, a.aShardBytes()) })
			if err != nil {
				panic(err)
			}
			c.aIn[sy] = h
		}
		for sx := 0; sx < gx; sx++ {
			if sx == c.x {
				continue
			}
			h, err := a.mgr.CreateHandle(c.pe, a.d.Region(c.pe, a.bShardBytes(), c.bSlot(sx)), oobPattern,
				func(ctx *charm.Ctx) { c.onShard(ctx, kindB, -1, nil, a.bShardBytes()) })
			if err != nil {
				panic(err)
			}
			c.bIn[sx] = h
		}
		for sz := 0; sz < gz; sz++ {
			if sz == c.z {
				continue
			}
			sz := sz
			c.cStageIn[sz] = a.d.Bytes(c.pe, a.cStripBytes())
			h, err := a.mgr.CreateHandle(c.pe, a.d.Region(c.pe, a.cStripBytes(), c.cStageIn[sz]), oobPattern,
				func(ctx *charm.Ctx) { c.onShard(ctx, kindC, sz, c.cStageIn[sz], a.cStripBytes()) })
			if err != nil {
				panic(err)
			}
			c.cIn[sz] = h
		}
	}
	// Senders associate. One A buffer serves gy-1 channels; one B buffer
	// serves gx-1; C strips each have their own buffer.
	for _, c := range a.chares {
		c.aOut = make([]*ckdirect.Handle, gy)
		c.bOut = make([]*ckdirect.Handle, gx)
		c.cOut = make([]*ckdirect.Handle, gz)
		aReg := a.d.Region(c.pe, a.aShardBytes(), c.aShard)
		for dy := 0; dy < gy; dy++ {
			if dy == c.y {
				continue
			}
			peer := a.arr.Obj(charm.Idx3(c.x, dy, c.z)).(*chare)
			h := peer.aIn[c.y]
			if err := a.mgr.AssocLocal(h, c.pe, aReg); err != nil {
				panic(err)
			}
			c.aOut[dy] = h
		}
		bReg := a.d.Region(c.pe, a.bShardBytes(), c.bShard)
		for dx := 0; dx < gx; dx++ {
			if dx == c.x {
				continue
			}
			peer := a.arr.Obj(charm.Idx3(dx, c.y, c.z)).(*chare)
			h := peer.bIn[c.x]
			if err := a.mgr.AssocLocal(h, c.pe, bReg); err != nil {
				panic(err)
			}
			c.bOut[dx] = h
		}
		for dz := 0; dz < gz; dz++ {
			if dz == c.z {
				continue
			}
			peer := a.arr.Obj(charm.Idx3(c.x, c.y, dz)).(*chare)
			h := peer.cIn[c.z]
			if err := a.mgr.AssocLocal(h, c.pe, a.d.Region(c.pe, a.cStripBytes(), c.cStripsOut[dz])); err != nil {
				panic(err)
			}
			c.cOut[dz] = h
		}
	}
}

// iterate starts one multiply on this chare: ship the A and B shards to
// the replication partners. Being message-driven, the compute may already
// have fired from onShard if every peer shard landed before this entry
// ran; ship order does not affect correctness.
func (c *chare) iterate(ctx *charm.Ctx) {
	a := c.app
	gx, gy := a.grid[0], a.grid[1]
	for dy := 0; dy < gy; dy++ {
		if dy == c.y {
			continue
		}
		c.ship(ctx, kindA, charm.Idx3(c.x, dy, c.z), c.aOut, dy, c.aShard, a.aShardBytes())
	}
	for dx := 0; dx < gx; dx++ {
		if dx == c.x {
			continue
		}
		c.ship(ctx, kindB, charm.Idx3(dx, c.y, c.z), c.bOut, dx, c.bShard, a.bShardBytes())
	}
	c.maybeCompute(ctx)
}

// ship sends one shard by message or put.
func (c *chare) ship(ctx *charm.Ctx, kind int, dst charm.Index, handles []*ckdirect.Handle, dstCoord int, data []byte, size int) {
	a := c.app
	if a.cfg.Mode == Msg {
		srcCoord := [3]int{c.y, c.x, c.z}[kind]
		ctx.Send(a.arr, dst, a.shardEP, &charm.Message{
			Size: size,
			Data: data,
			Tag:  kind | srcCoord<<4,
		})
		return
	}
	if err := a.mgr.Put(handles[dstCoord]); err != nil {
		panic(err)
	}
}

// onShard handles an arrived shard of any kind, from either transport.
// For the message transport the shard must first be copied into its
// place in the assembly — the cost CkDirect eliminates (§4.2).
func (c *chare) onShard(ctx *charm.Ctx, kind, src int, data []byte, size int) {
	a := c.app
	if a.cfg.Mode == Msg {
		ctx.Charge(sim.Nanoseconds(a.cfg.Platform.CopyPerByteNS * float64(size)))
		if a.cfg.Validate && kind != kindC {
			switch kind {
			case kindA:
				copy(c.aSlot(src), data)
			case kindB:
				copy(c.bSlot(src), data)
			}
		}
	}
	switch kind {
	case kindA:
		c.recvA++
	case kindB:
		c.recvB++
	case kindC:
		c.recvC++
		if c.cGot == nil {
			c.cGot = make([][]byte, a.grid[2])
		}
		if a.cfg.Mode == Msg && a.cfg.Backend == charm.NetBackend {
			// A remote message's payload aliases the pooled wire buffer,
			// which is recycled when this handler returns — but the strip
			// is staged until maybeFinish. Copy it out of the pool's reach.
			data = append([]byte(nil), data...)
		}
		c.cGot[src] = data
		if c.computed {
			c.chargeStripAdd(ctx)
		} else {
			c.pendingCAdds++
		}
	}
	c.maybeCompute(ctx)
	c.maybeFinish(ctx)
}

// maybeCompute fires the DGEMM once both assemblies are complete.
func (c *chare) maybeCompute(ctx *charm.Ctx) {
	a := c.app
	if c.computed || c.recvA < a.grid[1]-1 || c.recvB < a.grid[0]-1 {
		return
	}
	c.computed = true
	flops := linalg.GemmFlops(a.rowsA, a.colsA, a.colsB)
	ctx.Charge(sim.Nanoseconds(a.cfg.Platform.FlopNS * float64(flops)))

	var partial *linalg.Matrix
	if a.cfg.Validate {
		for i := range c.cAccum {
			c.cAccum[i] = 0
		}
		ab := bytesToMatrix(c.aBuf, a.rowsA, a.colsA)
		bb := bytesToMatrix(c.bBuf, a.rowsB, a.colsB)
		partial = linalg.NewMatrix(a.rowsC, a.colsC)
		linalg.Gemm(partial, ab, bb)
		// Own strip accumulates locally.
		c.accumulateStrip(partial)
	}
	// Scatter the other strips along the z line.
	for dz := 0; dz < a.grid[2]; dz++ {
		if dz == c.z {
			continue
		}
		if a.cfg.Validate {
			encodeStrip(partial, dz*a.stripRows, a.stripRows, c.cStripsOut[dz])
		}
		if a.cfg.Mode == Msg {
			ctx.Send(a.arr, charm.Idx3(c.x, c.y, dz), a.shardEP, &charm.Message{
				Size: a.cStripBytes(),
				Data: c.cStripsOut[dz],
				Tag:  kindC | c.z<<4,
			})
		} else {
			if err := a.mgr.Put(c.cOut[dz]); err != nil {
				panic(err)
			}
		}
	}
	// Strips that arrived early are charged now; the data itself folds in
	// ascending-z order in maybeFinish.
	for ; c.pendingCAdds > 0; c.pendingCAdds-- {
		c.chargeStripAdd(ctx)
	}
	c.maybeFinish(ctx)
}

// accumulateStrip adds this chare's own rows of the partial into cAccum.
func (c *chare) accumulateStrip(partial *linalg.Matrix) {
	a := c.app
	rowOff := c.z * a.stripRows
	for r := 0; r < a.stripRows; r++ {
		for j := 0; j < a.colsC; j++ {
			c.cAccum[r*a.colsC+j] += partial.At(rowOff+r, j)
		}
	}
}

// chargeStripAdd charges the CPU of accumulating one arrived strip (one
// add per element).
func (c *chare) chargeStripAdd(ctx *charm.Ctx) {
	a := c.app
	ctx.Charge(sim.Nanoseconds(a.cfg.Platform.FlopNS * float64(a.stripRows*a.colsC)))
}

// maybeFinish closes the iteration on this chare once compute and all C
// strips are in.
func (c *chare) maybeFinish(ctx *charm.Ctx) {
	a := c.app
	if !c.computed || c.recvC < a.grid[2]-1 {
		return
	}
	if a.cfg.Validate && c.cGot != nil {
		// Fold the staged strips in ascending source-z order (own strip was
		// added first, at compute time): a fixed fold order makes the FP sum
		// arrival-order independent.
		elems := a.stripRows * a.colsC
		for sz := 0; sz < a.grid[2]; sz++ {
			if sz == c.z || c.cGot[sz] == nil {
				continue
			}
			data := c.cGot[sz]
			for i := 0; i < elems; i++ {
				c.cAccum[i] += getF64(data, i)
			}
			c.cGot[sz] = nil
		}
	}
	c.recvA, c.recvB, c.recvC = 0, 0, 0
	c.computed = false
	if a.cfg.Mode == Ckd {
		for _, h := range c.aIn {
			if h != nil {
				a.mgr.Ready(h)
			}
		}
		for _, h := range c.bIn {
			if h != nil {
				a.mgr.Ready(h)
			}
		}
		for _, h := range c.cIn {
			if h != nil {
				a.mgr.Ready(h)
			}
		}
	}
	a.arr.ContributeFrom(c.idx, 1)
}

// oracle caches the serial reference product for the last order a run
// validated.
var oracle apps.Oracle[int]

// reference is the serial product A·B of order n, row-major, through the
// per-order cache; the slice is shared and read-only.
func reference(n int) []float64 {
	return oracle.Get(n, func() []float64 {
		am := linalg.NewMatrix(n, n)
		bm := linalg.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				am.Set(i, j, seedA(i, j))
				bm.Set(i, j, seedB(i, j))
			}
		}
		want := linalg.NewMatrix(n, n)
		linalg.Gemm(want, am, bm)
		return want.Data
	})
}

// verify reassembles C from the chares and compares against the serial
// reference product.
func (a *app) verify() float64 {
	n := a.cfg.N
	want := &linalg.Matrix{Rows: n, Cols: n, Data: reference(n)}
	got := linalg.NewMatrix(n, n)
	for _, c := range a.chares {
		// Chare (x,y,z) owns rows [x*rowsC + z*stripRows, ...) and cols
		// [y*colsC, ...) of C.
		for r := 0; r < a.stripRows; r++ {
			gi := c.x*a.rowsC + c.z*a.stripRows + r
			for j := 0; j < a.colsC; j++ {
				got.Set(gi, c.y*a.colsC+j, c.cAccum[r*a.colsC+j])
			}
		}
	}
	return linalg.MaxAbsDiff(got, want)
}

// verifyLocal checks the hosted chares' strips of C against the serial
// reference product — the distributed backend's validation path, where
// no single process holds the whole matrix but every process shares
// the oracle.
func (a *app) verifyLocal() []error {
	n := a.cfg.N
	want := reference(n)
	var errs []error
	for _, c := range a.chares {
		if !a.rts.HostsPE(c.pe) {
			continue
		}
		for r := 0; r < a.stripRows; r++ {
			gi := c.x*a.rowsC + c.z*a.stripRows + r
			for j := 0; j < a.colsC; j++ {
				got := c.cAccum[r*a.colsC+j]
				if diff := math.Abs(got - want[gi*n+c.y*a.colsC+j]); diff > 1e-9 {
					errs = append(errs, fmt.Errorf(
						"matmul: C(%d,%d) = %v, off the serial reference by %g",
						gi, c.y*a.colsC+j, got, diff))
					if len(errs) >= 5 {
						return errs
					}
				}
			}
		}
	}
	return errs
}

// gatherC assembles the distributed product into one row-major slice —
// the payload the cross-backend equivalence tests compare bit-for-bit —
// when a caller first reads Result.C.
// Under the net backend only hosted chares hold live data; the rest of
// the matrix is marked NaN so a comparison cannot silently pass on
// never-computed strips.
func (a *app) gatherC() []float64 {
	n := a.cfg.N
	out := make([]float64, n*n)
	if a.cfg.Backend == charm.NetBackend {
		for i := range out {
			out[i] = math.NaN()
		}
	}
	for _, c := range a.chares {
		if !a.rts.HostsPE(c.pe) {
			continue
		}
		for r := 0; r < a.stripRows; r++ {
			gi := c.x*a.rowsC + c.z*a.stripRows + r
			for j := 0; j < a.colsC; j++ {
				out[gi*n+c.y*a.colsC+j] = c.cAccum[r*a.colsC+j]
			}
		}
	}
	return out
}

func putF64(b []byte, i int, v float64) {
	binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(v))
}

func getF64(b []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
}

func bytesToMatrix(b []byte, rows, cols int) *linalg.Matrix {
	m := linalg.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = getF64(b, i)
	}
	return m
}

func encodeStrip(partial *linalg.Matrix, rowOff, rows int, out []byte) {
	cols := partial.Cols
	for r := 0; r < rows; r++ {
		for j := 0; j < cols; j++ {
			putF64(out, r*cols+j, partial.At(rowOff+r, j))
		}
	}
}
