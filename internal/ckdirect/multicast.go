package ckdirect

import (
	"fmt"

	"repro/internal/charm"
	"repro/internal/machine"
)

// Multicast channels implement the second §6 extension ("support for
// multicasts"): one logical channel from a single source buffer to many
// receivers. The sender issues one MulticastPut; the manager fans it out
// as one RDMA put per member (one-sided hardware multicast does not
// exist, so this is precisely the software fan-out a Charm++
// implementation would do — the saving over N plain channels is the
// single shared source registration and the single user-facing call).
//
// An optional sender-side completion callback fires when every member's
// payload has been delivered into remote memory.
type MulticastHandle struct {
	id      int
	mgr     *Manager
	members []*Handle
	sendPE  int
	sendBuf *machine.Region

	outstanding int
	onDelivered func()
}

// ID returns the multicast handle's identifier.
func (h *MulticastHandle) ID() int { return h.id }

// Members returns the per-receiver handles (for Ready cycling by the
// receivers).
func (h *MulticastHandle) Members() []*Handle { return h.members }

// CreateMulticast builds a multicast channel. Each receiver is described
// by its PE, destination region and arrival callback; all receivers share
// the out-of-band pattern. The source is bound immediately (multicast
// channels are sender-created, then the per-member handles travel to the
// receivers conceptually — in simulation, the caller distributes the
// returned member handles).
func (m *Manager) CreateMulticast(sendPE int, src *machine.Region, oob uint64, receivers []MulticastMember) (*MulticastHandle, error) {
	if m.rt != nil {
		return nil, rejectSimOnly("the multicast extension")
	}
	if len(receivers) == 0 {
		return nil, fmt.Errorf("ckdirect: multicast with no receivers")
	}
	if src == nil {
		return nil, fmt.Errorf("ckdirect: multicast with nil source")
	}
	mh := &MulticastHandle{id: m.nextID, mgr: m, sendPE: sendPE, sendBuf: src}
	m.nextID++
	for i, r := range receivers {
		h, err := m.CreateHandle(r.PE, r.Buf, oob, r.Callback)
		if err != nil {
			return nil, fmt.Errorf("ckdirect: multicast member %d: %w", i, err)
		}
		if err := m.AssocLocal(h, sendPE, src); err != nil {
			return nil, fmt.Errorf("ckdirect: multicast member %d: %w", i, err)
		}
		mh.members = append(mh.members, h)
	}
	m.ctr.multicasts.Add(sendPE, 1)
	return mh, nil
}

// MulticastMember describes one receiver of a multicast channel.
type MulticastMember struct {
	PE       int
	Buf      *machine.Region
	Callback func(ctx *charm.Ctx)
}

// MulticastPut sends the source buffer to every member. onAllDelivered
// (optional) fires on the sender side once every member's bytes are in
// remote memory.
func (m *Manager) MulticastPut(h *MulticastHandle, onAllDelivered func()) error {
	if h.outstanding > 0 {
		return m.misuse(fmt.Errorf("ckdirect: multicast %d put while %d deliveries outstanding", h.id, h.outstanding))
	}
	h.outstanding = len(h.members)
	h.onDelivered = onAllDelivered
	for _, member := range h.members {
		err := m.PutNotify(member, nil)
		if err != nil {
			return err
		}
	}
	// Track delivery via the per-member delivered counters: hook through
	// a lightweight poll on the engine would be overkill — instead each
	// member decrements on delivery through deliveryWatchers.
	for _, member := range h.members {
		member := member
		m.watchDelivery(member, func() {
			h.outstanding--
			if h.outstanding == 0 && h.onDelivered != nil {
				h.onDelivered()
			}
		})
	}
	return nil
}

// ReadyAll runs the Ready cycle on every member handle (receivers are
// expected to have consumed their data; typically each receiver calls
// Ready on its own member instead).
func (m *Manager) ReadyAll(h *MulticastHandle) {
	for _, member := range h.members {
		m.Ready(member)
	}
}

// watchDelivery registers fn to run at the member's next payload
// delivery.
func (m *Manager) watchDelivery(h *Handle, fn func()) {
	h.deliveryWatch = append(h.deliveryWatch, fn)
}

// notifyDelivery fires and clears delivery watchers.
func (h *Handle) notifyDelivery() {
	if len(h.deliveryWatch) == 0 {
		return
	}
	ws := h.deliveryWatch
	h.deliveryWatch = nil
	for _, fn := range ws {
		fn()
	}
}
