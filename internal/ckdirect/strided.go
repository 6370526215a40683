package ckdirect

import (
	"fmt"

	"repro/internal/charm"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Strided channels implement the first of the paper's §6 extensions
// ("support for ... strided communication patterns"): a put whose
// destination is a regular strided region — count blocks of blockLen
// bytes, stride bytes apart — like a column panel of a row-major matrix.
// ARMCI offers the same shape for its RMA puts (§2.3).
//
// The source stays contiguous (the sender packs once into its registered
// buffer, or already has the data contiguous); the scatter happens on the
// receiver side "in hardware": the simulated HCA walks the destination
// descriptor, so no receiver CPU is charged beyond the usual detection.
// The sender pays a small per-block descriptor-build cost.

// StridedLayout describes the destination scatter pattern.
type StridedLayout struct {
	// Offset is the byte offset of the first block within the region.
	Offset int
	// BlockLen is the length of each contiguous block in bytes.
	BlockLen int
	// Stride is the distance between block starts in bytes
	// (Stride >= BlockLen).
	Stride int
	// Count is the number of blocks.
	Count int
}

// TotalBytes returns the payload size the layout transfers.
func (l StridedLayout) TotalBytes() int { return l.BlockLen * l.Count }

// Validate checks layout sanity against a region size. Blocks shorter
// than the 8-byte sentinel word are rejected with a *SubWordError: the
// sentinel lives in the last 8 bytes of the last block, so a sub-word
// block would place it across neighbouring memory — and on the real
// backend the deposit path would slice the source at a negative index.
func (l StridedLayout) Validate(regionSize int) error {
	if l.BlockLen <= 0 || l.Count <= 0 {
		return fmt.Errorf("ckdirect: strided layout with non-positive block/count: %+v", l)
	}
	if l.BlockLen < 8 {
		return &SubWordError{What: "strided block", Bytes: l.BlockLen}
	}
	if l.Stride < l.BlockLen {
		return fmt.Errorf("ckdirect: stride %d smaller than block %d", l.Stride, l.BlockLen)
	}
	if l.Offset < 0 {
		return fmt.Errorf("ckdirect: negative offset %d", l.Offset)
	}
	last := l.Offset + (l.Count-1)*l.Stride + l.BlockLen
	if last > regionSize {
		return fmt.Errorf("ckdirect: strided layout [..%d] exceeds region of %d bytes", last, regionSize)
	}
	return nil
}

// descriptorCostUS is the sender CPU per destination block (building the
// scatter descriptor for the NIC).
const descriptorCostUS = 0.05

// StridedHandle is a channel whose destination is strided. It wraps a
// plain Handle: the sentinel lives in the last 8 bytes of the *last
// block*, which is the last byte of the transfer to land under in-order
// delivery.
type StridedHandle struct {
	*Handle
	layout StridedLayout
}

// Layout returns the destination layout.
func (h *StridedHandle) Layout() StridedLayout { return h.layout }

// CreateStridedHandle is CreateHandle for a strided destination. buf is
// the whole destination region (e.g. the full matrix); layout selects the
// blocks the channel writes.
func (m *Manager) CreateStridedHandle(pe int, buf *machine.Region, layout StridedLayout, oob uint64, cb func(ctx *charm.Ctx)) (*StridedHandle, error) {
	if buf == nil {
		return nil, fmt.Errorf("ckdirect: CreateStridedHandle with nil buffer")
	}
	if err := layout.Validate(buf.Size()); err != nil {
		return nil, err
	}
	h, err := m.createHandle(pe, buf, oob, cb, &layout)
	if err != nil {
		return nil, err
	}
	return &StridedHandle{Handle: h, layout: layout}, nil
}

// PutStrided transfers the associated source buffer into the strided
// destination. The source must hold exactly layout.TotalBytes().
func (m *Manager) PutStrided(h *StridedHandle) error {
	if h.layout.BlockLen < 8 {
		// Unreachable through CreateStridedHandle (Validate rejects the
		// layout), kept as the last line of defence in front of the real
		// backend's deposit, which would otherwise slice at a negative
		// index.
		return m.misuse(&SubWordError{What: "strided block", Bytes: h.layout.BlockLen})
	}
	if h.sendPE < 0 {
		return m.misuse(fmt.Errorf("ckdirect: PutStrided on handle %d before AssocLocal", h.id))
	}
	if h.sendBuf.Size() != h.layout.TotalBytes() {
		return m.misuse(fmt.Errorf("ckdirect: handle %d source is %d bytes, layout needs %d",
			h.id, h.sendBuf.Size(), h.layout.TotalBytes()))
	}
	// Descriptor-build cost on the sender, then the ordinary put path.
	m.rts.ChargeOn(h.sendPE, sim.Microseconds(descriptorCostUS*float64(h.layout.Count)))
	m.ctr.strided.Add(h.sendPE, 1)
	return m.Put(h.Handle)
}

// stridedSentinelPos returns the byte position of the sentinel for a
// strided handle: the last 8 bytes of the last block.
func stridedSentinelPos(l *StridedLayout) int {
	return l.Offset + (l.Count-1)*l.Stride + l.BlockLen - 8
}

// scatter copies a contiguous source into the strided destination.
func scatter(src, dst []byte, l *StridedLayout) {
	for b := 0; b < l.Count; b++ {
		from := src[b*l.BlockLen : (b+1)*l.BlockLen]
		to := dst[l.Offset+b*l.Stride:]
		copy(to[:l.BlockLen], from)
	}
}
