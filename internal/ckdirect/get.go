package ckdirect

import (
	"fmt"

	"repro/internal/charm"
	"repro/internal/machine"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// Get is the road not taken. The paper selects the put operation because
// it "closely matches the message driven programming model wherein
// message senders entirely drive the flow of control"; a get instead
// "requires that the receiver, through some synchronization, gain the
// knowledge that the source is ready to send it data", then issue the
// read and be prompted again on completion (§2).
//
// This file implements that alternative so the design choice can be
// measured (DESIGN.md ablation 2): a GetHandle pairs a remote source
// region with a local destination; the data producer must announce
// readiness with SignalReady — which costs a full runtime message, the
// very overhead CkDirect exists to avoid — and only then can the consumer
// issue the one-sided read, paying a request/response wire round trip.
type GetHandle struct {
	id  int
	mgr *Manager

	// Consumer (local) side.
	localPE int
	dstBuf  *machine.Region
	cb      func(ctx *charm.Ctx)

	// Producer (remote) side.
	remotePE int
	srcBuf   *machine.Region

	ready      bool // producer announced data availability
	inFlight   bool
	pendingGet bool // consumer asked before the producer signalled
	gets       int64
}

// ID returns the handle id.
func (h *GetHandle) ID() int { return h.id }

// Gets returns how many reads completed.
func (h *GetHandle) Gets() int64 { return h.gets }

// Ready reports whether the producer has signalled data availability.
func (h *GetHandle) Ready() bool { return h.ready }

// readySignalEP is registered lazily per manager for the producer's
// readiness notification messages.
func (m *Manager) readySignalEP() charm.EP {
	if m.getSignalEP < 0 {
		m.getSignalEP = m.rts.RegisterPEHandler(func(ctx *charm.Ctx, msg *charm.Message) {
			h := m.getHandles[msg.Tag]
			h.ready = true
			if h.pendingGet {
				h.pendingGet = false
				m.issueGet(h)
			}
		})
	}
	return m.getSignalEP
}

// CreateGetHandle is the consumer-side setup: local destination, remote
// source, completion callback.
func (m *Manager) CreateGetHandle(localPE int, dst *machine.Region, remotePE int, src *machine.Region, cb func(ctx *charm.Ctx)) (*GetHandle, error) {
	if m.rt != nil {
		return nil, rejectSimOnly("the get extension")
	}
	if dst == nil || src == nil {
		return nil, fmt.Errorf("ckdirect: CreateGetHandle with nil buffer")
	}
	if dst.PE().ID() != localPE {
		return nil, fmt.Errorf("ckdirect: destination lives on PE %d, handle on %d", dst.PE().ID(), localPE)
	}
	if src.PE().ID() != remotePE {
		return nil, fmt.Errorf("ckdirect: source lives on PE %d, expected %d", src.PE().ID(), remotePE)
	}
	if cb == nil {
		return nil, fmt.Errorf("ckdirect: nil callback")
	}
	h := &GetHandle{
		id:       len(m.getHandles),
		mgr:      m,
		localPE:  localPE,
		dstBuf:   dst,
		cb:       cb,
		remotePE: remotePE,
		srcBuf:   src,
	}
	m.getHandles = append(m.getHandles, h)
	m.rts.Machine().PE(localPE).Reserve(sim.Microseconds(createCPUUS))
	dst.SetRegistered(true)
	src.SetRegistered(true)
	return h, nil
}

// SignalReady is called by the *producer* when its data is ready for
// reading. It sends a runtime message to the consumer — the
// synchronization cost inherent to the get model.
func (m *Manager) SignalReady(h *GetHandle) {
	ep := m.readySignalEP()
	m.rts.SendPE(h.remotePE, h.localPE, ep, &charm.Message{Size: 16, Tag: h.id})
	m.ctr.getSignals.Add(h.remotePE, 1)
}

// Get issues the one-sided read. If the producer has not yet signalled
// readiness the read is deferred until the signal arrives (the receiver
// "must be prompted to continue", §2).
func (m *Manager) Get(h *GetHandle) error {
	if h.inFlight || h.pendingGet {
		return m.misuse(fmt.Errorf("ckdirect: Get on handle %d already in flight", h.id))
	}
	if !h.ready {
		h.pendingGet = true
		return nil
	}
	m.issueGet(h)
	return nil
}

// issueGet models the RDMA read: a small request crosses the wire to the
// source NIC, the payload streams back, the completion fires locally.
func (m *Manager) issueGet(h *GetHandle) {
	h.ready = false
	h.inFlight = true
	size := h.dstBuf.Size()
	plat := m.rts.Platform()
	cost := plat.CkdPut.Resolve(size)
	m.ctr.gets.Add(h.localPE, 1)
	// Request leg: fixed wire latency only (an RDMA read request is a
	// header-sized packet; reuse the put path's fixed wire term).
	reqWire := plat.CkdPut.Resolve(0).Wire
	net := m.rts.Net()
	_, issueEnd := m.rts.Machine().PE(h.localPE).Reserve(cost.SendCPU)
	eng := m.rts.Engine()
	eng.At(issueEnd+net.WireDelay(h.localPE, h.remotePE, reqWire), func() {
		// Source NIC streams the payload back; no remote CPU involved.
		eng.Schedule(net.WireDelay(h.remotePE, h.localPE, cost.Wire), func() {
			h.srcBuf.CopyTo(h.dstBuf)
			h.inFlight = false
			h.gets++
			// Local completion: same detection/callback cost structure
			// as the put path.
			detect := sim.Microseconds(plat.DetectLatencyUS + plat.DetectCPUUS + plat.CallbackUS)
			if plat.CkdRecvIsCallback {
				detect = sim.Microseconds(plat.CallbackUS)
			}
			_, end := m.rts.Machine().PE(h.localPE).Reserve(detect)
			eng.At(end, func() { h.cb(m.rts.CtxOn(h.localPE)) })
		})
	})
}

// GetOneWayModel returns the analytic end-to-end latency of a get at a
// size, from the producer's SignalReady to the consumer's callback — the
// quantity the put/get ablation compares.
func GetOneWayModel(plat *netmodel.Platform, size int) sim.Time {
	msg := plat.CharmMsg.Resolve(16+plat.HeaderBytes).OneWay() + sim.Microseconds(plat.SchedUS)
	cost := plat.CkdPut.Resolve(size)
	req := plat.CkdPut.Resolve(0).Wire
	detect := sim.Microseconds(plat.DetectLatencyUS + plat.DetectCPUUS + plat.CallbackUS)
	if plat.CkdRecvIsCallback {
		detect = sim.Microseconds(plat.CallbackUS)
	}
	return msg + cost.SendCPU + req + cost.Wire + detect
}
