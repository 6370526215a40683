package lb

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/charm"
	"repro/internal/netrt"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Balancer drives measurement-based load balancing for one run. It
// meters every element dispatch (it is the runtime's LoadMeter), and
// periodically — at a reduction barrier the application already runs —
// executes one balancing round:
//
//  1. The root reduction client — apps.Run's sequencer, where a
//     checkpoint due at the same step wins — at a step where Due(step)
//     is true, calls Begin and broadcasts the balancing entry method
//     instead of the next iterate (the pattern the checkpointer uses,
//     so the cut inherits its quiescence argument: every put of the
//     step is consumed, every channel re-armed, and no new app traffic
//     can start until the root resumes).
//  2. Every element's handler calls ElementBarrier. The last local
//     element to arrive gathers this rank's per-element loads from the
//     meter shards and ships them to the root (PE 0).
//  3. With all ranks' reports in, the root asks the Strategy for a
//     plan, broadcasts it (FLoc), and applies it like everyone else:
//     SPMD location bookkeeping for every move (charm.MoveElement),
//     packed element state shipped old host → new host (FMove), and
//     the application's OnMigrate hook rehoming the element's CkDirect
//     channels. A plan may arrive interleaved with the state it moves
//     (FMove and FLoc ride different connections), so early state
//     parks in a stash until the plan lands.
//  4. When a rank's moves are all applied — inbound state unpacked,
//     channel rehomes complete — it resets its meters and contributes
//     one extra reduction round for every element it now hosts. That
//     round completing at the root proves global completion; the root
//     calls Finish and resumes the application.
//
// Requirements: every rank must host at least one element of an
// attached array (true under the block maps this repository uses), and
// migrated chare objects must implement charm.Pupable.
type Balancer struct {
	rts  *charm.RTS
	nrt  *netrt.Runtime
	opts Options

	rank, world int

	arrays []*charm.Array
	byOrd  map[int]*charm.Array
	barEPs []charm.EP
	repEP  charm.EP

	shards []meterShard

	mu      sync.Mutex
	arrived int
	// Root-side round state.
	pending    bool
	reports    int
	loads      []ElementLoad
	rounds     int64
	migrations int64
	// Apply state (every rank).
	applied     bool
	outstanding int
	expect      map[[5]int]bool
	stash       map[[5]int][]byte
}

// Options configures a Balancer.
type Options struct {
	// Every runs a balancing round after every Every-th reduction
	// barrier (0 disables Due entirely).
	Every int
	// Strategy plans the migrations. Required.
	Strategy Strategy
	// Contrib is the value every element contributes to the balancing
	// round's extra reduction. Its width must be one the application's
	// reduction client tolerates (the client sees these values with
	// InBalance() true).
	Contrib []float64
	// OnMigrate, when set, is called on every rank for every applied
	// move, after the location bookkeeping: the application rehomes the
	// element's CkDirect channels (ckdirect.RehomeRecv/RehomeSend) and
	// any placement bookkeeping of its own, then calls done exactly
	// once (possibly asynchronously — rehomes chain through scheduler
	// tasks on live backends).
	OnMigrate func(array int, idx charm.Index, from, to int, done func())
}

type meterShard struct {
	mu sync.Mutex
	m  map[[5]int]*elemMeter
}

type elemMeter struct {
	busyNS int64
	msgs   int64
	bytes  int64
}

// New builds a Balancer and installs it as the runtime's load meter.
// Call during SPMD setup (it registers a PE handler; registration order
// must match across ranks), then Attach the arrays it balances.
func New(rts *charm.RTS, opts Options) (*Balancer, error) {
	if opts.Strategy == nil {
		return nil, fmt.Errorf("lb: nil strategy")
	}
	if len(opts.Contrib) == 0 {
		return nil, fmt.Errorf("lb: empty barrier contribution")
	}
	b := &Balancer{
		rts:    rts,
		nrt:    rts.NetRT(),
		opts:   opts,
		world:  1,
		byOrd:  make(map[int]*charm.Array),
		shards: make([]meterShard, rts.Machine().NumPEs()),
		expect: make(map[[5]int]bool),
		stash:  make(map[[5]int][]byte),
	}
	if b.nrt != nil {
		b.rank, b.world = b.nrt.Rank(), b.nrt.World()
	}
	b.repEP = rts.RegisterPEHandler(func(ctx *charm.Ctx, msg *charm.Message) {
		b.onReport(msg.Data)
	})
	if b.nrt != nil {
		ctl := b.nrt.Lo()
		b.nrt.SetLocSink(func(payload []byte) {
			data := append([]byte(nil), payload...)
			b.rts.EnqueueOn(ctl, func() { b.onPlanWire(data) })
		})
		b.nrt.SetMoveSink(func(array int64, payload []byte) {
			data := append([]byte(nil), payload...)
			b.rts.EnqueueOn(ctl, func() { b.onMove(int(array), data) })
		})
	}
	rts.SetLoadMeter(b)
	return b, nil
}

// Attach registers an array for balancing: its elements join the
// balancing barrier and may be migrated. Call once per array during
// setup, in SPMD-identical order.
func (b *Balancer) Attach(a *charm.Array) {
	ep := a.EntryMethod("lb.barrier", func(ctx *charm.Ctx, msg *charm.Message) {
		b.ElementBarrier(ctx)
	})
	b.arrays = append(b.arrays, a)
	b.barEPs = append(b.barEPs, ep)
	b.byOrd[a.Ord()] = a
}

// ElementRan implements charm.LoadMeter: it accrues one dispatch's cost
// against the element. Runs on the dispatching PE's goroutine; shards
// by PE so the common case locks an uncontended mutex.
func (b *Balancer) ElementRan(array int, idx charm.Index, pe int, busy sim.Time, msgBytes int) {
	s := &b.shards[pe]
	k := loadKey(array, idx)
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[[5]int]*elemMeter)
	}
	e := s.m[k]
	if e == nil {
		e = &elemMeter{}
		s.m[k] = e
	}
	e.busyNS += int64(busy)
	e.msgs++
	e.bytes += int64(msgBytes)
	s.mu.Unlock()
}

// Account accrues busy time against an element from outside the
// dispatch path — CkDirect arrival callbacks are plain functions the
// meter never sees, so compute they trigger is charged explicitly.
func (b *Balancer) Account(array int, idx charm.Index, pe int, busy sim.Time) {
	b.ElementRan(array, idx, pe, busy, 0)
	// One spurious dispatch count per Account call is harmless — the
	// strategies read BusyNS — but keep msgs honest anyway.
	s := &b.shards[pe]
	s.mu.Lock()
	s.m[loadKey(array, idx)].msgs--
	s.mu.Unlock()
}

// Due reports whether a balancing round should run after completed
// barrier step (1-based).
func (b *Balancer) Due(step int) bool {
	return b.opts.Every > 0 && step > 0 && step%b.opts.Every == 0
}

// Begin starts a balancing round from the root reduction client: it
// marks the round pending and broadcasts the balancing entry method to
// every attached array. The caller must not broadcast its own iterate
// this step — the Balancer resumes it via Finish.
func (b *Balancer) Begin(ctx *charm.Ctx) {
	b.mu.Lock()
	b.pending = true
	b.reports = 0
	b.loads = b.loads[:0]
	b.rounds++
	b.mu.Unlock()
	if rec := b.rts.Recorder(); rec != nil {
		rec.Incr(trace.CntLBRounds, 1)
	}
	for i, a := range b.arrays {
		a.Broadcast(ctx.PE(), b.barEPs[i], &charm.Message{Size: 32})
	}
}

// InBalance reports whether the reduction that just completed at the
// root closed a balancing round (the root client checks it before
// interpreting the values).
func (b *Balancer) InBalance() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.pending
}

// Finish closes the round at the root; the client resumes the
// application after it returns.
func (b *Balancer) Finish() {
	b.mu.Lock()
	b.pending = false
	b.mu.Unlock()
}

// Migrations returns how many element moves this process has planned
// (root) — the cumulative count across rounds.
func (b *Balancer) Migrations() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.migrations
}

// need counts the local elements a balancing barrier waits for,
// computed live (migration changes it between rounds).
func (b *Balancer) need() int {
	n := 0
	for _, a := range b.arrays {
		a.EachHosted(func(charm.Index, int) { n++ })
	}
	return n
}

// ElementBarrier records one element reaching the balancing cut. The
// last local element gathers this rank's load report and ships it to
// the root. (Elements do NOT contribute here — the round's reduction
// happens after the plan applies, from the post-migration placement.)
func (b *Balancer) ElementBarrier(ctx *charm.Ctx) {
	b.mu.Lock()
	b.arrived++
	last := b.arrived == b.need()
	if last {
		b.arrived = 0
	}
	b.mu.Unlock()
	if !last {
		return
	}
	data := b.encodeLoads(b.gatherLoads())
	b.rts.SendPE(ctx.PE(), 0, b.repEP, &charm.Message{Size: len(data), Data: data})
}

// gatherLoads snapshots this rank's per-element meters in the
// deterministic hosted-element order. Elements that never ran report
// zero load (they still exist for the strategy's bookkeeping).
func (b *Balancer) gatherLoads() []ElementLoad {
	var out []ElementLoad
	for _, a := range b.arrays {
		ord := a.Ord()
		a.EachHosted(func(idx charm.Index, pe int) {
			l := ElementLoad{Array: ord, Index: idx, PE: pe}
			s := &b.shards[pe]
			s.mu.Lock()
			if e := s.m[loadKey(ord, idx)]; e != nil {
				l.BusyNS, l.Msgs, l.Bytes = e.busyNS, e.msgs, e.bytes
			}
			s.mu.Unlock()
			out = append(out, l)
		})
	}
	return out
}

func (b *Balancer) encodeLoads(loads []ElementLoad) []byte {
	p := &charm.Packer{}
	n := len(loads)
	p.Int(&n)
	for i := range loads {
		l := &loads[i]
		p.Int(&l.Array)
		for d := 0; d < 4; d++ {
			p.Int(&l.Index[d])
		}
		p.Int(&l.PE)
		p.Int64(&l.BusyNS)
		p.Int64(&l.Msgs)
		p.Int64(&l.Bytes)
	}
	return p.Buf
}

func decodeLoads(data []byte) ([]ElementLoad, error) {
	u := &charm.Unpacker{Buf: data}
	var n int
	u.Int(&n)
	if err := u.Err(); err != nil {
		return nil, err
	}
	if n < 0 || n > len(data) {
		return nil, fmt.Errorf("lb: load report claims %d entries in %d bytes", n, len(data))
	}
	out := make([]ElementLoad, n)
	for i := range out {
		l := &out[i]
		u.Int(&l.Array)
		for d := 0; d < 4; d++ {
			u.Int(&l.Index[d])
		}
		u.Int(&l.PE)
		u.Int64(&l.BusyNS)
		u.Int64(&l.Msgs)
		u.Int64(&l.Bytes)
	}
	if err := u.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// onReport lands one rank's load report at the root (PE 0's scheduler,
// so reports serialize). The last report triggers planning.
func (b *Balancer) onReport(data []byte) {
	loads, err := decodeLoads(data)
	if err != nil {
		b.rts.ReportError(fmt.Errorf("lb: bad load report: %w", err))
		return
	}
	b.mu.Lock()
	b.loads = append(b.loads, loads...)
	b.reports++
	ready := b.reports == b.world
	b.mu.Unlock()
	if ready {
		b.plan()
	}
}

// plan asks the strategy for this round's moves, records the imbalance
// it saw, broadcasts the plan and applies it locally. Runs on the
// root's PE-0 scheduler task.
func (b *Balancer) plan() {
	b.mu.Lock()
	loads := b.loads
	b.mu.Unlock()
	// Report arrival order is rank-nondeterministic under net; restore a
	// canonical order so the plan is a pure function of the loads.
	sort.Slice(loads, func(i, j int) bool {
		if loads[i].Array != loads[j].Array {
			return loads[i].Array < loads[j].Array
		}
		return lessIndex(loads[i].Index, loads[j].Index)
	})
	pes := b.rts.Machine().NumPEs()
	moves := b.opts.Strategy.Plan(pes, loads)
	before, after := SpreadPermille(pes, loads, moves)
	if rec := b.rts.Recorder(); rec != nil {
		rec.Incr(trace.CntLBMigrations, int64(len(moves)))
		rec.Incr(trace.CntLBSpreadBefore, before)
		rec.Incr(trace.CntLBSpreadAfter, after)
	}
	b.mu.Lock()
	b.migrations += int64(len(moves))
	b.mu.Unlock()
	if b.nrt != nil && b.world > 1 {
		b.nrt.SendLoc(b.encodePlan(moves))
	}
	b.applyPlan(moves)
}

func (b *Balancer) encodePlan(moves []Move) []byte {
	p := &charm.Packer{}
	n := len(moves)
	p.Int(&n)
	for i := range moves {
		mv := &moves[i]
		p.Int(&mv.Array)
		for d := 0; d < 4; d++ {
			p.Int(&mv.Index[d])
		}
		p.Int(&mv.ToPE)
	}
	return p.Buf
}

// onPlanWire decodes an FLoc broadcast and applies it. Runs on the
// control PE's scheduler, serialized with onMove.
func (b *Balancer) onPlanWire(data []byte) {
	u := &charm.Unpacker{Buf: data}
	var n int
	u.Int(&n)
	if err := u.Err(); err != nil || n < 0 || n > len(data)+1 {
		b.rts.ReportError(fmt.Errorf("lb: bad plan broadcast (%d entries, err %v)", n, u.Err()))
		return
	}
	moves := make([]Move, n)
	for i := range moves {
		mv := &moves[i]
		u.Int(&mv.Array)
		for d := 0; d < 4; d++ {
			u.Int(&mv.Index[d])
		}
		u.Int(&mv.ToPE)
		mv.FromPE = -1 // recomputed at apply
	}
	if err := u.Err(); err != nil {
		b.rts.ReportError(fmt.Errorf("lb: bad plan broadcast: %w", err))
		return
	}
	b.applyPlan(moves)
}

// applyPlan executes this rank's share of a balancing plan: SPMD
// location bookkeeping for every move, outbound state packing, inbound
// state accounting (stash-aware), and the application's channel-rehome
// hook. Completion is a counter, not a wait — rehomes and inbound
// state resolve through scheduler tasks, and the last one to finish
// triggers finishApply.
func (b *Balancer) applyPlan(moves []Move) {
	b.mu.Lock()
	b.applied = true
	b.outstanding = 1
	b.mu.Unlock()
	for i := range moves {
		mv := &moves[i]
		a := b.byOrd[mv.Array]
		if a == nil {
			b.rts.ReportError(fmt.Errorf("lb: plan names unattached array %d", mv.Array))
			continue
		}
		from := a.CurrentPE(mv.Index)
		if from < 0 || from == mv.ToPE {
			continue
		}
		hostsFrom, hostsTo := b.rts.HostsPE(from), b.rts.HostsPE(mv.ToPE)
		if err := b.rts.MoveElement(mv.Array, mv.Index, mv.ToPE); err != nil {
			b.rts.ReportError(err)
			continue
		}
		k := loadKey(mv.Array, mv.Index)
		switch {
		case hostsFrom && !hostsTo:
			data, err := b.rts.PackElement(mv.Array, mv.Index)
			if err != nil {
				b.rts.ReportError(err)
				break
			}
			payload := b.encodeMove(mv.Index, data)
			b.nrt.SendMove(b.nrt.RankOf(mv.ToPE), int64(mv.Array), payload)
			if rec := b.rts.Recorder(); rec != nil {
				rec.Incr(trace.CntLBBytesMoved, int64(len(data)))
			}
		case hostsTo && !hostsFrom:
			b.mu.Lock()
			if data, ok := b.stash[k]; ok {
				delete(b.stash, k)
				b.mu.Unlock()
				if err := b.rts.UnpackElement(mv.Array, mv.Index, data); err != nil {
					b.rts.ReportError(err)
				}
			} else {
				b.expect[k] = true
				b.outstanding++
				b.mu.Unlock()
			}
		}
		if b.opts.OnMigrate != nil {
			b.mu.Lock()
			b.outstanding++
			b.mu.Unlock()
			b.opts.OnMigrate(mv.Array, mv.Index, from, mv.ToPE, b.moveDone)
		}
	}
	b.moveDone()
}

func (b *Balancer) encodeMove(idx charm.Index, state []byte) []byte {
	p := &charm.Packer{}
	for d := 0; d < 4; d++ {
		p.Int(&idx[d])
	}
	p.Buf = append(p.Buf, state...)
	return p.Buf
}

// onMove lands one migrated element's packed state. Runs on the
// control PE's scheduler. State may beat the plan here (FMove and FLoc
// ride different connections); it then parks in the stash until
// applyPlan claims it.
func (b *Balancer) onMove(array int, data []byte) {
	u := &charm.Unpacker{Buf: data}
	var idx charm.Index
	for d := 0; d < 4; d++ {
		u.Int(&idx[d])
	}
	if err := u.Err(); err != nil {
		b.rts.ReportError(fmt.Errorf("lb: bad migration payload: %w", err))
		return
	}
	state := data[len(data)-u.Rest():]
	k := loadKey(array, idx)
	b.mu.Lock()
	expected := b.applied && b.expect[k]
	if expected {
		delete(b.expect, k)
	} else {
		b.stash[k] = state
	}
	b.mu.Unlock()
	if !expected {
		return
	}
	if err := b.rts.UnpackElement(array, idx, state); err != nil {
		b.rts.ReportError(err)
	}
	b.moveDone()
}

// moveDone retires one unit of apply work; the last one finishes the
// round on this rank.
func (b *Balancer) moveDone() {
	b.mu.Lock()
	b.outstanding--
	fin := b.outstanding == 0
	if fin {
		b.applied = false
	}
	b.mu.Unlock()
	if fin {
		b.finishApply()
	}
}

// finishApply resets the meters for the next period and contributes
// the round's extra reduction for every element this rank now hosts —
// from each element's (possibly new) PE, so migrated elements exercise
// their home-forwarding path immediately.
func (b *Balancer) finishApply() {
	for pe := range b.shards {
		s := &b.shards[pe]
		s.mu.Lock()
		s.m = nil
		s.mu.Unlock()
	}
	for _, a := range b.arrays {
		a := a
		a.EachHosted(func(idx charm.Index, pe int) {
			b.rts.EnqueueOn(pe, func() {
				a.ContributeFrom(idx, b.opts.Contrib...)
			})
		})
	}
}
