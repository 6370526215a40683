package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/charm"
	"repro/internal/ckdirect"
	"repro/internal/machine"
	"repro/internal/netrt"
	"repro/internal/rng"
)

// arm is one side of every comparison: Charm++ messages or CkDirect puts.
type arm int

const (
	armMsg arm = iota
	armCkd
)

func (a arm) String() string { return [...]string{"msg", "ckd"}[a] }

// ppShape describes a harness-owned transfer loop between PE 0 (A, the
// driver) and PE 1 (B, the reflector). One op is: A sends fan transfers
// of payload bytes, B receives them all, re-arms, and returns one
// transfer of credit bytes. Pingpong is fan 1 with credit == payload.
type ppShape struct {
	backend  backendKind
	payload  int
	fan      int
	credit   int
	batch    int // consecutive ops averaged into one sample (keeps the clock read < 1 % of it)
	warm     int // untimed ops opening every block
	traceOps int // ops a traced block keeps spans of: its last ones (span volume stays loadable)
}

// blockLimit bounds a block's timed region: by wall time (dur) or by op
// count (ops) when dur is zero — set-up warm-ups, smoke and traced blocks.
type blockLimit struct {
	dur    time.Duration
	ops    int
	traced bool
}

// blockResult is what one block (one run generation on the world) yields.
type blockResult struct {
	samples    []float64 // µs per op
	ops        int64     // timed ops
	attempted  int64     // every op, warm-up and final included
	failed     int64
	res        resDelta         // consumed over the timed region
	counters   map[string]int64 // trace counters of the whole generation, all ranks
	termTail   time.Duration    // last callback → Run return
	envWire    int              // EnvWireSize of one A→B envelope (msg arm, net)
	runs       int64            // run generations the block used
	counterOps int64            // ops the counters cover (warm-up and final included)
	spans      []span
}

// finalFlag marks the op after the timed region: untimed, and both sides
// compare every received byte against the seeded source.
const finalFlag = uint64(1) << 62

// oob is the CkDirect out-of-band sentinel pattern; payloads are
// generated never to end in it.
const oob = 0xFFF8BADF00D00001

// payloads derives every buffer a shape moves from the seed: fan A→B
// sources and one B→A source. The program under test sees only these
// bytes. The first word of each is overwritten per op with the sequence
// stamp; the last word must not equal the sentinel.
func payloads(s ppShape, seed uint64) (srcA [][]byte, srcB []byte) {
	r := rng.New(seed ^ 0x70617928)
	gen := func(n int) []byte {
		b := make([]byte, n)
		r.Fill(b)
		if binary.LittleEndian.Uint64(b[n-8:]) == oob {
			b[n-1] ^= 1
		}
		return b
	}
	srcA = make([][]byte, s.fan)
	for i := range srcA {
		srcA[i] = gen(s.payload)
	}
	return srcA, gen(s.credit)
}

// opTrace holds the clock reads of one traced op. A and B write disjoint
// fields; spans are assembled after Run returns, so recording is a store
// into preallocated memory, not a lock.
type opTrace struct {
	op         uint64     // A: which op holds the record (they are a ring)
	start, end int64      // A: op launch (previous credit's entry) / this credit's entry
	aReady     [2]int64   // A, ckd: around Ready on the credit channel
	fwd        [][2]int64 // A: around each Send / Put
	fwdEntry   []int64    // B: handler / callback entry per slot
	bReady     [][2]int64 // B, ckd: around each Ready
	back       [2]int64   // B: around the credit Send / Put
}

// ppRun is the state of one block. Fields are confined to the PE that
// uses them (A's to PE 0, B's to PE 1); the two sides meet only through
// the transfers under test, and fails is the one shared counter.
type ppRun struct {
	shape ppShape
	arm   arm
	lim   blockLimit
	srcA  [][]byte
	srcB  []byte
	fails atomic.Int64

	// A side.
	seq        uint64 // op in flight, 1-based
	final      bool
	timedOps   int
	batchStart time.Time
	timedStart time.Time
	samples    []float64
	snap0      resSnap
	res        resDelta
	lastCB     time.Time
	launch     func(ctx *charm.Ctx) // starts the next op on the arm's transport

	// B side.
	doneB    uint64
	arrivals int

	// Traced blocks only.
	base time.Time
	ops  []opTrace
}

func (p *ppRun) traceNow() int64 { return int64(time.Since(p.base)) }

// traceOf returns the record of a timed op (nil during warm-up or when
// untraced). The records are a ring, so a traced block runs as long as
// its untraced twin and keeps the spans of its last ops — the settled
// state, not the first milliseconds. With one op in flight A and B are
// never more than one record apart.
func (p *ppRun) traceOf(op uint64) *opTrace {
	if p.ops == nil || int(op) <= p.shape.warm {
		return nil
	}
	return &p.ops[(int(op)-p.shape.warm-1)%len(p.ops)]
}

func (p *ppRun) fail(format string, args ...any) {
	if p.fails.Add(1) == 1 {
		fmt.Fprintf(logw, "  FAIL %s/%v: %s\n", p.shape.backend, p.arm, fmt.Sprintf(format, args...))
	}
}

// stampOf is the sequence word the current op carries.
func (p *ppRun) stampOf() uint64 {
	if p.final {
		return p.seq | finalFlag
	}
	return p.seq
}

// checkFwd validates one A→B transfer on B: the stamp names the op B
// expects, and on the final op every byte after the stamp matches the
// seeded source. It returns the op number.
func (p *ppRun) checkFwd(slot int, got []byte) uint64 {
	stamp := binary.LittleEndian.Uint64(got[:8])
	op := stamp &^ finalFlag
	if op != p.doneB+1 {
		p.fail("B slot %d: stamp names op %d, expected %d", slot, op, p.doneB+1)
	}
	if len(got) != p.shape.payload {
		p.fail("B slot %d: %d bytes, expected %d", slot, len(got), p.shape.payload)
	} else if stamp&finalFlag != 0 && !bytes.Equal(got[8:], p.srcA[slot][8:]) {
		p.fail("B slot %d: final block compare differs", slot)
	}
	return op
}

// onCredit is A's completion of one op, shared by both arms: validate,
// re-arm (ckd), time, decide whether the block goes on, and launch the
// next op.
func (p *ppRun) onCredit(ctx *charm.Ctx, got []byte, rearm func()) {
	stamp := binary.LittleEndian.Uint64(got[:8])
	if stamp != p.stampOf() {
		p.fail("A: credit stamp %#x, expected %#x", stamp, p.stampOf())
	}
	if p.final && (len(got) != p.shape.credit || !bytes.Equal(got[8:], p.srcB[8:])) {
		p.fail("A: final block compare differs")
	}
	if rearm != nil {
		// After the reads above: re-arming overwrites the buffer's last word.
		rearm()
	}
	if p.final {
		p.lastCB = time.Now()
		return
	}
	switch {
	case int(p.seq) < p.shape.warm:
	case int(p.seq) == p.shape.warm:
		// Warm-up over: the timed region opens with this callback.
		p.snap0 = snapRes(true)
		p.timedStart = time.Now()
		p.batchStart = p.timedStart
	default:
		p.timedOps++
		if p.timedOps%p.shape.batch == 0 {
			now := time.Now()
			if len(p.samples) < cap(p.samples) {
				p.samples = append(p.samples, float64(now.Sub(p.batchStart))/1e3/float64(p.shape.batch))
			}
			p.batchStart = now
			if (p.lim.dur > 0 && now.Sub(p.timedStart) >= p.lim.dur) || (p.lim.ops > 0 && p.timedOps >= p.lim.ops) {
				p.res = snapRes(true).since(p.snap0)
				p.final = true
			}
		}
	}
	p.launch(ctx)
}

// buildMsg registers the msg arm on one rank: a two-element array, one
// persistent message per slot (the Charm++ idiom for a regular exchange —
// copy-on-send makes reuse safe once Send returns), real Data everywhere.
func (p *ppRun) buildMsg(e *rankEnv) {
	arr := e.rts.NewArray("bench", func(ix charm.Index) int { return ix[0] })
	arr.Insert(charm.Idx1(0), &struct{}{})
	arr.Insert(charm.Idx1(1), &struct{}{})
	fwd := make([]*charm.Message, p.shape.fan)
	for i := range fwd {
		fwd[i] = &charm.Message{Size: p.shape.payload, Tag: i, Data: bytes.Clone(p.srcA[i])}
	}
	back := &charm.Message{Size: p.shape.credit, Data: bytes.Clone(p.srcB)}

	var fwdEP, backEP charm.EP
	fwdEP = arr.EntryMethod("fwd", func(ctx *charm.Ctx, msg *charm.Message) {
		var entry int64
		if p.ops != nil {
			entry = p.traceNow()
		}
		if msg.Data == nil || msg.Tag < 0 || msg.Tag >= p.shape.fan {
			p.fail("B: message without payload or with slot %d", msg.Tag)
			return
		}
		op := p.checkFwd(msg.Tag, msg.Data)
		tr := p.traceOf(op)
		if tr != nil {
			tr.fwdEntry[msg.Tag] = entry
		}
		if p.arrivals++; p.arrivals < p.shape.fan {
			return
		}
		p.arrivals = 0
		p.doneB++
		copy(back.Data[:8], msg.Data[:8])
		if tr != nil {
			tr.back[0] = p.traceNow()
		}
		ctx.Send(arr, charm.Idx1(0), backEP, back)
		if tr != nil {
			tr.back[1] = p.traceNow()
		}
	})
	backEP = arr.EntryMethod("back", func(ctx *charm.Ctx, msg *charm.Message) {
		if p.ops != nil {
			p.markCredit()
		}
		if msg.Data == nil {
			p.fail("A: credit without payload")
			return
		}
		p.onCredit(ctx, msg.Data, nil)
	})
	launch := func(ctx *charm.Ctx) {
		p.seq++
		tr := p.traceOf(p.seq)
		stamp := p.stampOf()
		for i, m := range fwd {
			binary.LittleEndian.PutUint64(m.Data[:8], stamp)
			if tr != nil {
				tr.fwd[i][0] = p.traceNow()
			}
			ctx.Send(arr, charm.Idx1(1), fwdEP, m)
			if tr != nil {
				tr.fwd[i][1] = p.traceNow()
			}
		}
	}
	p.start(e, launch)
}

// markCredit stamps A's credit entry into the trace: it closes the op in
// flight and opens the next one (an op spans credit entry to credit entry,
// exactly as the untraced samples do).
func (p *ppRun) markCredit() {
	now := p.traceNow()
	if tr := p.traceOf(p.seq); tr != nil {
		tr.end = now
	}
	if tr := p.traceOf(p.seq + 1); tr != nil {
		tr.op, tr.start, tr.end = p.seq+1, now, 0
	}
}

// buildCkd registers the ckd arm on one rank: fan channels A→B and one
// credit channel B→A, every buffer a real machine.Region. Received bytes
// are always read through Region.Bytes() — under shm the receive region is
// rebound into the shared arena at AssocLocal.
func (p *ppRun) buildCkd(e *rankEnv) {
	mgr := ckdirect.NewManager(e.rts)
	region := func(pe int, src []byte) *machine.Region {
		r := e.mach.AllocRegion(pe, len(src), false)
		copy(r.Bytes(), src)
		return r
	}
	send := make([]*machine.Region, p.shape.fan)
	recv := make([]*machine.Region, p.shape.fan)
	hs := make([]*ckdirect.Handle, p.shape.fan)
	var hBack *ckdirect.Handle
	sendBack := region(1, p.srcB)
	recvBack := e.mach.AllocRegion(0, p.shape.credit, false)

	for i := range hs {
		send[i] = region(0, p.srcA[i])
		recv[i] = e.mach.AllocRegion(1, p.shape.payload, false)
		h, err := mgr.CreateHandle(1, recv[i], oob, func(ctx *charm.Ctx) {
			var entry int64
			if p.ops != nil {
				entry = p.traceNow()
			}
			got := recv[i].Bytes()
			op := p.checkFwd(i, got)
			tr := p.traceOf(op)
			if tr != nil {
				tr.fwdEntry[i] = entry
			}
			if p.arrivals++; p.arrivals < p.shape.fan {
				return
			}
			p.arrivals = 0
			p.doneB++
			stamp := binary.LittleEndian.Uint64(got[:8])
			// Every slot of the window has been read: re-arm them all,
			// then return the credit.
			for j, hj := range hs {
				if tr != nil {
					tr.bReady[j][0] = p.traceNow()
				}
				mgr.Ready(hj)
				if tr != nil {
					tr.bReady[j][1] = p.traceNow()
				}
			}
			binary.LittleEndian.PutUint64(sendBack.Bytes()[:8], stamp)
			if tr != nil {
				tr.back[0] = p.traceNow()
			}
			if err := mgr.Put(hBack); err != nil {
				p.fail("B: credit put: %v", err)
			}
			if tr != nil {
				tr.back[1] = p.traceNow()
			}
		})
		if err != nil {
			panic(fmt.Sprintf("benchmark: create handle: %v", err))
		}
		hs[i] = h
	}
	rearm := func() {
		// The Ready belongs to the op it opens (ops run credit entry to
		// credit entry); seq advances only in launch.
		tr := p.traceOf(p.seq + 1)
		if tr != nil {
			tr.aReady[0] = p.traceNow()
		}
		mgr.Ready(hBack)
		if tr != nil {
			tr.aReady[1] = p.traceNow()
		}
	}
	var err error
	hBack, err = mgr.CreateHandle(0, recvBack, oob, func(ctx *charm.Ctx) {
		if p.ops != nil {
			p.markCredit()
		}
		p.onCredit(ctx, recvBack.Bytes(), rearm)
	})
	if err != nil {
		panic(fmt.Sprintf("benchmark: create credit handle: %v", err))
	}
	for i, h := range hs {
		if err := mgr.AssocLocal(h, 0, send[i]); err != nil {
			panic(fmt.Sprintf("benchmark: assoc: %v", err))
		}
	}
	if err := mgr.AssocLocal(hBack, 1, sendBack); err != nil {
		panic(fmt.Sprintf("benchmark: assoc credit: %v", err))
	}
	launch := func(ctx *charm.Ctx) {
		p.seq++
		tr := p.traceOf(p.seq)
		stamp := p.stampOf()
		for i, h := range hs {
			binary.LittleEndian.PutUint64(send[i].Bytes()[:8], stamp)
			if tr != nil {
				tr.fwd[i][0] = p.traceNow()
			}
			if err := mgr.Put(h); err != nil {
				p.fail("A: put slot %d: %v", i, err)
			}
			if tr != nil {
				tr.fwd[i][1] = p.traceNow()
			}
		}
	}
	p.start(e, launch)
}

// start installs the rank's launch closure as the block's driver when the
// rank hosts PE 0 (SPMD set-up runs everywhere; only A's rank drives).
func (p *ppRun) start(e *rankEnv, launch func(ctx *charm.Ctx)) {
	if e.rts.HostsPE(0) {
		p.launch = launch
	}
	e.rts.StartAt(0, launch)
}

// runPPBlock executes one block of a shape on a booted world: one run
// generation, warm-up ops, the timed region, the final compare op, then
// distributed termination.
//
// samples is the caller's reusable sample buffer: the harness's heap must
// stay the same size from block to block and run to run, or it sets the
// program's GC pace (a msg-arm block allocates a clone per send; with a
// harness heap that grew by tens of MB its GC cycles, and its op time,
// halved). Samples beyond the buffer's capacity are not recorded.
func runPPBlock(w *world, shape ppShape, a arm, lim blockLimit, seed uint64, samples []float64) blockResult {
	p := &ppRun{shape: shape, arm: a, lim: lim, base: time.Now()}
	p.srcA, p.srcB = payloads(shape, seed)
	p.samples = samples[:0]
	if lim.traced {
		p.ops = make([]opTrace, shape.traceOps)
		for i := range p.ops {
			p.ops[i].fwd = make([][2]int64, shape.fan)
			p.ops[i].fwdEntry = make([]int64, shape.fan)
			p.ops[i].bReady = make([][2]int64, shape.fan)
		}
	}
	build := p.buildMsg
	if a == armCkd {
		build = p.buildCkd
	}
	counters, errs := w.runSPMD(true, build)
	returned := time.Now()

	r := blockResult{
		samples:   p.samples,
		ops:       int64(p.timedOps),
		attempted: int64(p.seq),
		failed:    p.fails.Load(),
		res:       p.res,
		counters:  counters,
		runs:      1, counterOps: int64(p.seq),
	}
	for _, err := range errs {
		r.failed++
		fmt.Fprintf(logw, "  FAIL %s/%v: runtime error: %v\n", shape.backend, a, err)
	}
	if !p.final || p.lastCB.IsZero() {
		r.failed++
		fmt.Fprintf(logw, "  FAIL %s/%v: block ended after op %d without its final compare\n", shape.backend, a, p.seq)
	} else {
		r.termTail = returned.Sub(p.lastCB)
	}
	if a == armMsg {
		r.envWire = netrt.EnvWireSize(&netrt.Env{Kind: netrt.EnvArray, Size: shape.payload, Data: p.srcA[0]})
	}
	if lim.traced {
		r.spans = p.assembleSpans()
	}
	return r
}

// Span names. The two "flight" spans are the cross-PE intervals
// (send/put return → peer handler/callback entry); the issue's
// charm.send_to_handler_us and ckdirect.put_to_cb_us are their medians.
const (
	spanOp        = "op"
	spanSendCall  = "charm.send_call"
	spanSendFly   = "charm.send_to_handler"
	spanPutCall   = "ckdirect.put_call"
	spanPutFly    = "ckdirect.put_to_cb"
	spanReadyCall = "ckdirect.ready"
)

// assembleSpans turns the per-op clock reads into spans: every span is a
// child of its op; a flight is caused by the call that launched it.
func (p *ppRun) assembleSpans() []span {
	t := newTracer()
	call, fly := spanSendCall, spanSendFly
	if p.arm == armCkd {
		call, fly = spanPutCall, spanPutFly
	}
	sort.Slice(p.ops, func(i, j int) bool { return p.ops[i].op < p.ops[j].op })
	for i := range p.ops {
		o := &p.ops[i]
		if o.end == 0 || o.op == p.seq {
			continue // never used, still open, or the final compare op
		}
		op := int64(o.op)
		root := t.add(spanOp, op, 0, 0, 0, o.start, o.end)
		if p.arm == armCkd && o.aReady[1] != 0 {
			t.add(spanReadyCall, op, root, 0, 0, o.aReady[0], o.aReady[1])
		}
		for s := range o.fwd {
			c := t.add(call, op, root, 0, 0, o.fwd[s][0], o.fwd[s][1])
			t.add(fly, op, root, c, 1, o.fwd[s][1], o.fwdEntry[s])
			if p.arm == armCkd {
				t.add(spanReadyCall, op, root, 0, 1, o.bReady[s][0], o.bReady[s][1])
			}
		}
		c := t.add(call, op, root, 0, 1, o.back[0], o.back[1])
		t.add(fly, op, root, c, 0, o.back[1], o.end)
	}
	return t.spans
}
