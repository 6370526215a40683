package ckdirect

import (
	"encoding/binary"
	"fmt"

	"repro/internal/charm"
)

// Checkpoint hooks: a coordinated checkpoint cuts at a reduction
// barrier, where the application protocol guarantees every put of the
// step has been consumed and every channel re-armed. These methods let
// the charm-layer checkpointer verify that drain (Quiescent — the same
// sequence-guard bookkeeping the stall watchdog uses) and capture the
// registered-buffer contents (PupRegions) so a restored run resumes
// with the exact receiver memory the cut saw, armed sentinels included.

// Quiescent verifies every locally received channel is drained: the
// handle is re-armed (Ready ran after the last delivery — state Armed
// or Marked, never Fired) with no delivery pending, and for real-memory
// regions the sentinel word actually holds the out-of-band pattern. A
// put mid-deposit or an unconsumed delivery fails the check, and the
// checkpoint aborts rather than persist a torn cut.
func (m *Manager) Quiescent() error {
	for _, h := range m.handles {
		if h == nil || !m.rts.HostsPE(h.recvPE) {
			continue
		}
		if h.state == Fired {
			return fmt.Errorf("ckdirect: handle %d holds an unconsumed delivery (state %s) at checkpoint", h.id, h.state)
		}
		if h.pendingDeliver {
			return fmt.Errorf("ckdirect: handle %d has a delivery pending at checkpoint", h.id)
		}
		if b := h.recvBuf.Bytes(); len(b) >= 8 {
			if binary.LittleEndian.Uint64(b[len(b)-8:]) != h.oob {
				return fmt.Errorf("ckdirect: handle %d sentinel not armed at checkpoint (put in flight)", h.id)
			}
		}
	}
	return nil
}

// PupRegions pups the contents of every locally received registered
// buffer, in handle-id order — the id is the channel's wire identity,
// assigned identically on every rank by the SPMD setup, so pack and
// unpack walk the same sequence. Unpacking restores bytes in place
// (the regions alias application buffers), re-materializing the armed
// sentinels the cut saw.
func (m *Manager) PupRegions(p charm.Puper) error {
	count := 0
	for _, h := range m.handles {
		if m.pupsRegion(h) {
			count++
		}
	}
	n := count
	p.Int(&n)
	if n != count {
		return fmt.Errorf("ckdirect: checkpoint has %d registered regions, this setup has %d", n, count)
	}
	for _, h := range m.handles {
		if !m.pupsRegion(h) {
			continue
		}
		id := h.id
		p.Int(&id)
		if id != h.id {
			return fmt.Errorf("ckdirect: checkpoint region for handle %d, expected handle %d", id, h.id)
		}
		b := h.recvBuf.Bytes()
		p.Bytes(&b)
		if err := p.Err(); err != nil {
			return fmt.Errorf("ckdirect: pup region of handle %d: %w", h.id, err)
		}
		if len(b) != len(h.recvBuf.Bytes()) {
			return fmt.Errorf("ckdirect: checkpoint region of handle %d is %d bytes, buffer is %d", h.id, len(b), len(h.recvBuf.Bytes()))
		}
	}
	return nil
}

// pupsRegion reports whether a handle's receive buffer is checkpointed
// here: locally hosted and backed by real memory (virtual regions have
// no bytes to save).
func (m *Manager) pupsRegion(h *Handle) bool {
	return h != nil && m.rts.HostsPE(h.recvPE) && len(h.recvBuf.Bytes()) > 0
}
