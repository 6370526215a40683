package ckdirect

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/charm"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Reduction channels implement the third §6 extension ("support for ...
// reductions"): N contributors put into per-contributor slots of a target
// buffer; when the last slot lands, the target's callback receives the
// combined value. This packages the pattern OpenAtom's PairCalculator
// builds by hand (a counting callback over many channels, §5.1) into a
// reusable primitive, with the combination work charged to the target PE.
type ReduceChannel struct {
	id      int
	mgr     *Manager
	pe      int
	width   int // float64s per contribution
	op      charm.ReduceOp
	slots   []*Handle
	arrived int
	cb      func(ctx *charm.Ctx, vals []float64)
}

// ID returns the channel's identifier.
func (rc *ReduceChannel) ID() int { return rc.id }

// Contributors returns the number of contributor slots.
func (rc *ReduceChannel) Contributors() int { return len(rc.slots) }

// SlotHandle returns contributor i's handle (to be AssocLocal'd and Put
// on by that contributor).
func (rc *ReduceChannel) SlotHandle(i int) *Handle { return rc.slots[i] }

// CreateReduceChannel builds a reduction channel on PE pe combining
// contributions of width float64s from n contributors with op. The
// callback receives the combined vector once all contributions of a
// generation have landed.
func (m *Manager) CreateReduceChannel(pe, n, width int, op charm.ReduceOp, oob uint64, cb func(ctx *charm.Ctx, vals []float64)) (*ReduceChannel, error) {
	if m.rt != nil {
		return nil, rejectSimOnly("the channel-reduction extension")
	}
	if n <= 0 || width <= 0 {
		return nil, fmt.Errorf("ckdirect: reduce channel needs positive contributors and width")
	}
	if cb == nil {
		return nil, fmt.Errorf("ckdirect: reduce channel with nil callback")
	}
	slotBytes := width * 8
	rc := &ReduceChannel{
		id:    m.nextID,
		mgr:   m,
		pe:    pe,
		width: width,
		op:    op,
		cb:    cb,
	}
	m.nextID++
	// One backing region per slot: contributors land in disjoint memory,
	// exactly like the per-state buffers of the PairCalculator.
	virtual := m.rts.Options().VirtualPayloads
	for i := 0; i < n; i++ {
		var reg *machine.Region
		if virtual {
			reg = m.rts.Machine().AllocRegion(pe, slotBytes, true)
		} else {
			reg = m.rts.Machine().AllocRegion(pe, slotBytes, false)
		}
		h, err := m.CreateHandle(pe, reg, oob, func(ctx *charm.Ctx) { rc.onSlot(ctx) })
		if err != nil {
			return nil, err
		}
		rc.slots = append(rc.slots, h)
	}
	if rec := m.rts.Recorder(); rec != nil {
		rec.Incr("ckd.reduce_channels", 1)
	}
	return rc, nil
}

// Contribute is a convenience for contributor i: encode vals into the
// given source region and put. The region must hold width float64s and
// be AssocLocal'd to slot i already.
func (m *Manager) Contribute(rc *ReduceChannel, i int, src *machine.Region, vals []float64) error {
	if len(vals) != rc.width {
		return fmt.Errorf("ckdirect: contribution width %d, channel width %d", len(vals), rc.width)
	}
	if b := src.Bytes(); b != nil {
		for j, v := range vals {
			binary.LittleEndian.PutUint64(b[j*8:], math.Float64bits(v))
		}
	}
	return m.Put(rc.slots[i])
}

// onSlot counts arrivals; the last one combines and fires the client.
func (rc *ReduceChannel) onSlot(ctx *charm.Ctx) {
	rc.arrived++
	if rc.arrived < len(rc.slots) {
		return
	}
	rc.arrived = 0
	// Combination cost: one op per element per contribution.
	m := rc.mgr
	flopNS := m.rts.Platform().FlopNS
	ctx.Charge(sim.Nanoseconds(flopNS * float64(rc.width*len(rc.slots))))

	vals := identityFor(rc.op, rc.width)
	for _, slot := range rc.slots {
		b := slot.recvBuf.Bytes()
		contribution := make([]float64, rc.width)
		for j := range contribution {
			if b != nil {
				contribution[j] = math.Float64frombits(binary.LittleEndian.Uint64(b[j*8:]))
			}
		}
		combine(rc.op, vals, contribution)
	}
	// Re-arm every slot for the next generation before handing the
	// result to the client (the client often triggers the next round).
	for _, slot := range rc.slots {
		m.Ready(slot)
	}
	rc.cb(ctx, vals)
}

func identityFor(op charm.ReduceOp, width int) []float64 {
	vals := make([]float64, width)
	switch op {
	case charm.Min:
		for i := range vals {
			vals[i] = math.Inf(1)
		}
	case charm.Max:
		for i := range vals {
			vals[i] = math.Inf(-1)
		}
	case charm.Prod:
		for i := range vals {
			vals[i] = 1
		}
	}
	return vals
}

func combine(op charm.ReduceOp, dst, src []float64) {
	for i := range dst {
		switch op {
		case charm.Sum:
			dst[i] += src[i]
		case charm.Min:
			if src[i] < dst[i] {
				dst[i] = src[i]
			}
		case charm.Max:
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		case charm.Prod:
			dst[i] *= src[i]
		}
	}
}
