package charm

import (
	"fmt"

	"repro/internal/netrt"
)

// Index addresses an element within a chare array. Up to four dimensions
// are supported (the OpenAtom PairCalculator is four-dimensional). Unused
// dimensions are zero.
type Index [4]int

// Idx1 builds a one-dimensional index.
func Idx1(i int) Index { return Index{i, 0, 0, 0} }

// Idx2 builds a two-dimensional index.
func Idx2(i, j int) Index { return Index{i, j, 0, 0} }

// Idx3 builds a three-dimensional index.
func Idx3(i, j, k int) Index { return Index{i, j, k, 0} }

// Idx4 builds a four-dimensional index.
func Idx4(i, j, k, l int) Index { return Index{i, j, k, l} }

// String formats the index compactly.
func (ix Index) String() string {
	return fmt.Sprintf("(%d,%d,%d,%d)", ix[0], ix[1], ix[2], ix[3])
}

// element is one array element: the user chare object plus placement.
// Reduction generation tracking lives in each reducer (an element may
// participate in the array's reduction and several section reductions
// independently).
type element struct {
	idx Index
	pe  int
	obj interface{}
	ctx *Ctx // cached delivery context: Ctx is immutable, so one per element serves every entry method
}

// Array is a chare array: a collection of elements indexed by Index,
// mapped onto PEs, with registered entry methods, broadcast and reduction
// support.
type Array struct {
	rts   *RTS
	name  string
	ord   int // ordinal in registration order — the array's wire identity
	mapFn func(Index) int

	elems  map[Index]*element
	perPE  [][]*element // insertion order per PE (deterministic)
	eps    []Handler
	epName []string

	// reduction machinery
	red *reducer
}

// NewArray declares an empty chare array. mapFn assigns each index to a
// PE; it must be pure.
func (rts *RTS) NewArray(name string, mapFn func(Index) int) *Array {
	a := &Array{
		rts:   rts,
		name:  name,
		mapFn: mapFn,
		elems: make(map[Index]*element),
		perPE: make([][]*element, rts.mach.NumPEs()),
	}
	a.red = newReducer(rts, name, func() [][]*element { return a.perPE })
	a.ord = len(rts.arrays)
	rts.arrays = append(rts.arrays, a)
	return a
}

// BlockMap1D distributes n elements (indexed Idx1(0..n-1)) over pes PEs in
// contiguous blocks — the default Charm++ array map.
func BlockMap1D(n, pes int) func(Index) int {
	per := (n + pes - 1) / pes
	return func(ix Index) int {
		pe := ix[0] / per
		if pe >= pes {
			pe = pes - 1
		}
		return pe
	}
}

// RRMap hashes any index round-robin over pes PEs, mixing all four
// dimensions. It is deterministic and spreads multidimensional arrays
// evenly.
func RRMap(pes int) func(Index) int {
	return func(ix Index) int {
		h := uint64(2166136261)
		for _, v := range ix {
			h = (h ^ uint64(uint32(v))) * 16777619
		}
		return int(h % uint64(pes))
	}
}

// Name returns the array's name.
func (a *Array) Name() string { return a.name }

// Insert creates the element at idx with the given chare object. All
// inserts must happen before the simulation starts exchanging messages
// (mirroring array construction in a Charm++ mainchare).
func (a *Array) Insert(idx Index, obj interface{}) {
	if _, dup := a.elems[idx]; dup {
		panic(fmt.Sprintf("charm: duplicate insert of %s[%s]", a.name, idx))
	}
	pe := a.mapFn(idx)
	if pe < 0 || pe >= a.rts.mach.NumPEs() {
		panic(fmt.Sprintf("charm: map sent %s[%s] to invalid PE %d", a.name, idx, pe))
	}
	el := &element{idx: idx, pe: pe, obj: obj}
	el.ctx = &Ctx{rts: a.rts, pe: pe, arr: a, idx: idx, obj: obj, elem: el}
	a.elems[idx] = el
	a.perPE[pe] = append(a.perPE[pe], el)
}

// NumElements returns the number of inserted elements.
func (a *Array) NumElements() int { return len(a.elems) }

// ElementsOn returns how many elements live on a PE.
func (a *Array) ElementsOn(pe int) int { return len(a.perPE[pe]) }

// PEOf returns the PE the array map assigns idx — its birth placement.
// After migration the element may live elsewhere; see CurrentPE.
func (a *Array) PEOf(idx Index) int { return a.mapFn(idx) }

// CurrentPE returns the PE currently hosting idx (-1 if absent). It
// tracks migrations, unlike PEOf.
func (a *Array) CurrentPE(idx Index) int {
	if el, ok := a.elems[idx]; ok {
		return el.pe
	}
	return -1
}

// Ord returns the array's registration ordinal — its wire identity and
// the array id in migration plans.
func (a *Array) Ord() int { return a.ord }

// EachHosted calls fn for every locally hosted element in the
// deterministic per-PE insertion order (every element under sim/real;
// this rank's block under net). The load balancer drives barrier
// contributions and load reports through it.
func (a *Array) EachHosted(fn func(idx Index, pe int)) {
	for pe, els := range a.perPE {
		if !a.rts.HostsPE(pe) {
			continue
		}
		for _, el := range els {
			fn(el.idx, pe)
		}
	}
}

// Obj returns the chare object at idx (nil if absent) — used by drivers
// and tests for validation.
func (a *Array) Obj(idx Index) interface{} {
	if el, ok := a.elems[idx]; ok {
		return el.obj
	}
	return nil
}

// EntryMethod registers a handler and returns its EP.
func (a *Array) EntryMethod(name string, h Handler) EP {
	a.eps = append(a.eps, h)
	a.epName = append(a.epName, name)
	return EP(len(a.eps) - 1)
}

// Send delivers msg to the entry method ep of element idx, paying the
// full Charm++ message path: envelope bytes, network, receive processing,
// scheduler dispatch.
func (a *Array) Send(srcPE int, idx Index, ep EP, msg *Message) {
	el, ok := a.elems[idx]
	if !ok {
		err := fmt.Errorf("charm: send to missing element %s[%s]", a.name, idx)
		if a.rts.opts.Checked {
			a.rts.ReportError(err)
			return
		}
		panic(err)
	}
	h := a.eps[ep]
	a.rts.ctr.msgs.Add(srcPE, 1)
	a.rts.ctr.bytes.Add(srcPE, int64(msg.Size))
	if !a.rts.HostsPE(el.pe) {
		a.rts.netrt.SendMsg(&netrt.Env{
			Kind: netrt.EnvArray, Array: a.ord, EP: int(ep), Index: el.idx,
			SrcPE: srcPE, DstPE: el.pe,
			Size: msg.Size, Tag: msg.Tag, Val: msg.Val,
			Vals: msg.Vals, Data: msg.Data,
		})
		return
	}
	msg = a.rts.cloneForReal(msg)
	dst := el.pe
	a.rts.transport(srcPE, dst, msg.Size, func() {
		a.rts.enqueue(dst, func() {
			a.rts.invoke(h, a.ctxFor(el), msg)
		})
	})
}

// Send is also available from a context.
func (c *Ctx) Send(a *Array, idx Index, ep EP, msg *Message) {
	a.Send(c.pe, idx, ep, msg)
}

func (a *Array) ctxFor(el *element) *Ctx {
	return el.ctx
}

// Broadcast delivers msg to every element's entry method ep. Distribution
// uses a binomial tree over PEs (small runtime control messages), then
// each hosting PE dispatches one local delivery per element through its
// scheduler — matching how Charm++ array broadcasts are charged.
func (a *Array) Broadcast(srcPE int, ep EP, msg *Message) {
	if a.rts.netrt != nil {
		a.netCast(srcPE, ep, msg)
		return
	}
	a.rts.treeCast(srcPE, func(pe int) {
		for _, el := range a.perPE[pe] {
			el := el
			a.rts.enqueue(pe, func() {
				a.rts.invoke(a.eps[ep], a.ctxFor(el), msg)
			})
		}
	}, msg.Size)
}

// netCast is the distributed broadcast: the closure-based binomial tree
// cannot cross process boundaries, so one FCast frame ships to every
// other process (the receiver fans out to its local elements) and the
// local elements are delivered directly.
func (a *Array) netCast(srcPE int, ep EP, msg *Message) {
	nrt := a.rts.netrt
	nrt.SendCast(&netrt.Env{
		Kind: netrt.EnvCast, Array: a.ord, EP: int(ep),
		SrcPE: srcPE, DstPE: -1,
		Size: msg.Size, Tag: msg.Tag, Val: msg.Val,
		Vals: msg.Vals, Data: msg.Data,
	})
	msg = a.rts.cloneForReal(msg)
	for pe := nrt.Lo(); pe < nrt.Hi(); pe++ {
		for _, el := range a.perPE[pe] {
			el := el
			a.rts.enqueue(pe, func() {
				a.rts.invoke(a.eps[ep], a.ctxFor(el), msg)
			})
		}
	}
}

// Broadcast from a context.
func (c *Ctx) Broadcast(a *Array, ep EP, msg *Message) {
	a.Broadcast(c.pe, ep, msg)
}

// treeCast runs deliver(pe) on every PE, fanning out from root along a
// binomial tree of runtime messages of the given payload size.
func (rts *RTS) treeCast(root int, deliver func(pe int), size int) {
	rts.castMu.Lock()
	rts.castSessions = append(rts.castSessions, castSession{deliver: deliver, size: size})
	id := len(rts.castSessions) - 1
	rts.castMu.Unlock()
	rts.runCast(root, root, id)
}

type castSession struct {
	deliver func(pe int)
	size    int
}

// runCast executes the cast step on pe: forward to tree children (relative
// to root), then deliver locally.
func (rts *RTS) runCast(pe, root, id int) {
	rts.castMu.Lock()
	sess := rts.castSessions[id]
	rts.castMu.Unlock()
	p := rts.mach.NumPEs()
	rel := (pe - root + p) % p
	for _, crel := range binomialChildren(rel, p) {
		child := (crel + root) % p
		rts.SendPE(pe, child, rts.castEP, &Message{Size: sess.size, Tag: id, Val: float64(root)})
	}
	sess.deliver(pe)
}

// binomialChildren returns the children of relative rank rel in a
// binomial tree over p ranks rooted at 0.
func binomialChildren(rel, p int) []int {
	var out []int
	limit := rel & (-rel)
	if rel == 0 {
		limit = 1
		for limit < p {
			limit <<= 1
		}
	}
	for j := 1; j < limit; j <<= 1 {
		if c := rel + j; c < p {
			out = append(out, c)
		}
	}
	return out
}

// binomialParent returns the parent of relative rank rel (rel > 0).
func binomialParent(rel int) int { return rel - (rel & -rel) }
