package charm

import (
	"fmt"
	"math"
	"sort"
)

// ReduceOp is the combining operation of a reduction.
type ReduceOp int

// Supported reduction operations.
const (
	Sum ReduceOp = iota
	Min
	Max
	Prod
)

func (op ReduceOp) combine(dst, src []float64) {
	for i := range dst {
		switch op {
		case Sum:
			dst[i] += src[i]
		case Min:
			if src[i] < dst[i] {
				dst[i] = src[i]
			}
		case Max:
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		case Prod:
			dst[i] *= src[i]
		}
	}
}

func (op ReduceOp) identity(width int) []float64 {
	vals := make([]float64, width)
	switch op {
	case Min:
		for i := range vals {
			vals[i] = math.Inf(1)
		}
	case Max:
		for i := range vals {
			vals[i] = math.Inf(-1)
		}
	case Prod:
		for i := range vals {
			vals[i] = 1
		}
	}
	return vals
}

// reducer implements Charm++-style contribute/reduce over a set of
// elements (a whole array, or an array section): each element contributes
// once per reduction generation; per-PE partials combine locally, flow up
// a binomial tree of runtime messages over the participating PEs, and the
// completed result is delivered to the reduction client on the root PE
// through its scheduler.
//
// Contributions are buffered and folded in a fixed order — rank-local
// element order first, then child partials by ascending child rank — only
// once a node's partial is complete. Arrival order therefore never
// changes the floating-point result, which is what lets a wall-clock
// real-backend run reproduce the simulator's reduction values bit for
// bit (the cross-backend oracle; see DESIGN.md).
type reducer struct {
	rts    *RTS
	name   string
	member func() [][]*element // per-PE element lists, fixed at freeze
	op     ReduceOp
	client func(ctx *Ctx, vals []float64)
	ep     EP

	frozen       bool
	participants []int            // PEs hosting members, ascending
	rankOf       map[int]int      // PE -> rank among participants
	kids         [][]int          // children ranks per rank
	kidPos       []map[int]int    // child rank -> position in kids[rank]
	localCount   []int            // members per rank
	ord          map[*element]int // element -> rank-local ordinal
	entries      []map[int]*redEntry
	// seq holds per-element generation counters, sharded by PE: each map
	// is touched only by its PE's goroutine under the real backend.
	// Migration moves an element's counter between shards at the
	// quiescent cut (migrateSeq).
	seq []map[*element]int
	// home records each element's PE at freeze time. The tree, ranks and
	// ordinals are frozen against this placement; an element that later
	// migrates keeps its frozen slot and forwards contributions to its
	// home PE (fwdEP) instead of re-shaping the tree mid-run — fold
	// order, and therefore the floating-point result, never changes.
	home  map[*element]int
	fwdEP EP
}

type redEntry struct {
	width    int
	locals   [][]float64 // one slot per rank-local element ordinal
	kidVals  [][]float64 // one slot per child position
	localGot int
	kidsGot  int
}

func newReducer(rts *RTS, name string, member func() [][]*element) *reducer {
	r := &reducer{rts: rts, name: name, member: member,
		seq: make([]map[*element]int, rts.mach.NumPEs())}
	r.ep = rts.RegisterPEHandler(func(ctx *Ctx, msg *Message) {
		r.onPartial(ctx.pe, int(msg.Val), msg.Tag, msg.Vals)
	})
	r.fwdEP = rts.RegisterPEHandler(func(ctx *Ctx, msg *Message) {
		r.onForwarded(ctx.pe, int(msg.Val), msg.Tag, msg.Vals)
	})
	rts.reducers = append(rts.reducers, r)
	return r
}

// SetReductionClient installs the combining operation and the client
// invoked (on the root participant PE, through the scheduler) with each
// completed reduction result.
func (a *Array) SetReductionClient(op ReduceOp, client func(ctx *Ctx, vals []float64)) {
	a.red.op = op
	a.red.client = client
}

// Contribute submits this element's contribution to its next reduction
// generation. All elements must contribute the same number of values
// within a generation.
func (c *Ctx) Contribute(vals ...float64) {
	if c.elem == nil {
		panic("charm: Contribute outside an array entry method")
	}
	c.arr.red.contributeEl(c.elem, vals)
}

// ContributeFrom submits a contribution on behalf of element idx from
// outside its entry methods — the path CkDirect callbacks use to join a
// barrier (a callback is a plain function, not an entry method).
func (a *Array) ContributeFrom(idx Index, vals ...float64) {
	el, ok := a.elems[idx]
	if !ok {
		panic(fmt.Sprintf("charm: ContributeFrom missing element %s[%s]", a.name, idx))
	}
	a.red.contributeEl(el, vals)
}

// freeze fixes the participant set and tree on first use.
func (r *reducer) freeze() {
	if r.frozen {
		return
	}
	r.frozen = true
	perPE := r.member()
	for pe, elems := range perPE {
		if len(elems) > 0 {
			r.participants = append(r.participants, pe)
		}
	}
	sort.Ints(r.participants)
	r.rankOf = make(map[int]int, len(r.participants))
	r.localCount = make([]int, len(r.participants))
	for rank, pe := range r.participants {
		r.rankOf[pe] = rank
		r.localCount[rank] = len(perPE[pe])
	}
	n := len(r.participants)
	r.kids = make([][]int, n)
	r.kidPos = make([]map[int]int, n)
	for rank := 0; rank < n; rank++ {
		r.kids[rank] = binomialChildren(rank, n)
		r.kidPos[rank] = make(map[int]int, len(r.kids[rank]))
		for pos, kid := range r.kids[rank] {
			r.kidPos[rank][kid] = pos
		}
	}
	r.ord = make(map[*element]int)
	r.home = make(map[*element]int)
	for _, pe := range r.participants {
		for i, el := range perPE[pe] {
			r.ord[el] = i
			r.home[el] = pe
		}
	}
	r.entries = make([]map[int]*redEntry, n)
	for i := range r.entries {
		r.entries[i] = make(map[int]*redEntry)
	}
}

func (r *reducer) entry(rank, gen int, width int) *redEntry {
	e, ok := r.entries[rank][gen]
	if !ok {
		e = &redEntry{
			width:   width,
			locals:  make([][]float64, r.localCount[rank]),
			kidVals: make([][]float64, len(r.kids[rank])),
		}
		r.entries[rank][gen] = e
	}
	return e
}

// contributeEl routes an element's contribution into its PE's partial for
// the element's next generation.
func (r *reducer) contributeEl(el *element, vals []float64) {
	r.freeze()
	m := r.seq[el.pe]
	if m == nil {
		m = make(map[*element]int)
		r.seq[el.pe] = m
	}
	gen := m[el]
	m[el] = gen + 1
	if home, ok := r.home[el]; ok && home != el.pe {
		// The element migrated after the tree froze: its slot still
		// lives on its home PE. Forward the contribution there with the
		// frozen rank-local ordinal, so the home fold is untouched.
		r.rts.SendPE(el.pe, home, r.fwdEP, &Message{
			Size: controlSize(len(vals)),
			Tag:  gen,
			Val:  float64(r.ord[el]),
			Vals: vals,
		})
		return
	}
	rank, ok := r.rankOf[el.pe]
	if !ok {
		panic(fmt.Sprintf("charm: contribution from non-participant PE %d", el.pe))
	}
	e := r.entry(rank, gen, len(vals))
	if len(vals) != e.width {
		err := fmt.Errorf("charm: reduction width mismatch on %s gen %d: %d vs %d",
			r.name, gen, e.width, len(vals))
		if r.rts.opts.Checked {
			r.rts.ReportError(err)
			return
		}
		panic(err)
	}
	e.locals[r.ord[el]] = vals
	e.localGot++
	r.maybeForward(rank, gen, e)
}

// onForwarded lands a migrated element's contribution on its home PE:
// the ordinal rides the message, so the entry fills exactly the slot
// the element held before it moved.
func (r *reducer) onForwarded(pe, ordinal, gen int, vals []float64) {
	rank, ok := r.rankOf[pe]
	if !ok {
		panic(fmt.Sprintf("charm: forwarded contribution to non-participant PE %d", pe))
	}
	e := r.entry(rank, gen, len(vals))
	if len(vals) != e.width {
		err := fmt.Errorf("charm: reduction width mismatch on %s gen %d: %d vs %d",
			r.name, gen, e.width, len(vals))
		if r.rts.opts.Checked {
			r.rts.ReportError(err)
			return
		}
		panic(err)
	}
	if ordinal < 0 || ordinal >= len(e.locals) {
		r.rts.ReportError(fmt.Errorf("charm: forwarded contribution ordinal %d outside [0,%d) on %s",
			ordinal, len(e.locals), r.name))
		return
	}
	e.locals[ordinal] = vals
	e.localGot++
	r.maybeForward(rank, gen, e)
}

// migrateSeq moves an element's generation counter between PE shards
// when the element rehomes. Runs only at the quiescent migration cut,
// where neither shard's PE goroutine is touching its map.
func (r *reducer) migrateSeq(el *element, from, to int) {
	m := r.seq[from]
	if m == nil {
		return
	}
	g, ok := m[el]
	if !ok {
		return
	}
	delete(m, el)
	d := r.seq[to]
	if d == nil {
		d = make(map[*element]int)
		r.seq[to] = d
	}
	d[el] = g
}

// elementGen reads an element's next reduction generation (0 if it has
// never contributed).
func (r *reducer) elementGen(el *element) int {
	if m := r.seq[el.pe]; m != nil {
		return m[el]
	}
	return 0
}

// setElementGen seeds an element's generation counter on its current
// PE's shard — the receiving side of a cross-rank migration, where the
// counter arrived in the element's packed state.
func (r *reducer) setElementGen(el *element, g int) {
	m := r.seq[el.pe]
	if m == nil {
		m = make(map[*element]int)
		r.seq[el.pe] = m
	}
	m[el] = g
}

func (r *reducer) onPartial(pe, childPE, gen int, vals []float64) {
	rank := r.rankOf[pe]
	e := r.entry(rank, gen, len(vals))
	if len(vals) != e.width {
		err := fmt.Errorf("charm: reduction width mismatch on %s gen %d: %d vs %d",
			r.name, gen, e.width, len(vals))
		if r.rts.opts.Checked {
			r.rts.ReportError(err)
			return
		}
		panic(err)
	}
	e.kidVals[r.kidPos[rank][r.rankOf[childPE]]] = vals
	e.kidsGot++
	r.maybeForward(rank, gen, e)
}

func (r *reducer) maybeForward(rank, gen int, e *redEntry) {
	if e.localGot < r.localCount[rank] || e.kidsGot < len(r.kids[rank]) {
		return
	}
	delete(r.entries[rank], gen)
	// Fold in fixed order — locals by element ordinal, then child
	// partials by ascending child rank — so the result is independent of
	// arrival order (and thus identical across backends).
	vals := r.op.identity(e.width)
	for _, lv := range e.locals {
		r.op.combine(vals, lv)
	}
	for _, kv := range e.kidVals {
		r.op.combine(vals, kv)
	}
	pe := r.participants[rank]
	if rank == 0 {
		// Root: deliver to the client through the scheduler, like a
		// reduction-target entry method.
		r.rts.enqueue(pe, func() {
			if r.client == nil {
				panic(fmt.Sprintf("charm: reduction on %s completed with no client", r.name))
			}
			r.client(&Ctx{rts: r.rts, pe: pe}, vals)
		})
		r.rts.ctr.reductions.Add(pe, 1)
		return
	}
	parent := r.participants[binomialParent(rank)]
	r.rts.SendPE(pe, parent, r.ep, &Message{
		Size: controlSize(len(vals)),
		Tag:  gen,
		Val:  float64(pe), // child identity for deterministic folding
		Vals: vals,
	})
}
