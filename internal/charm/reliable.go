package charm

import (
	"fmt"

	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Reliability configures the ack/retransmit protocol for the Charm++
// message paths. Real deployments of RDMA messaging layer exactly this
// kind of state machine over the raw transport (MPICH2 over InfiniBand);
// here it lets applications survive an unreliable simulated network while
// paying honest recovery costs: every retransmission and every ack is a
// full Transfer through the regime tables, so recovery latency shows up
// in benchmark numbers rather than being waved away.
type Reliability struct {
	// MaxRetries is how many retransmissions are attempted after the first
	// send before the message is declared failed (default 4).
	MaxRetries int
	// AckBytes is the ack payload size in bytes, charged through the
	// CharmMsg regime table plus envelope (default 16).
	AckBytes int
	// RTO is the initial retransmission timeout. Zero derives a generous
	// default from the unloaded round-trip of the message and its ack.
	// Each retry doubles it (exponential backoff).
	RTO sim.Time
}

// EnableReliability routes every subsequent SendPE / Array.Send through
// the ack/retransmit protocol. Call it before the simulation starts; it
// is not meant to be toggled mid-run.
func (rts *RTS) EnableReliability(cfg Reliability) {
	if rts.opts.Backend == RealBackend {
		// Fault injection and recovery model unreliable fabrics; the real
		// backend's shared-memory transport does not drop messages.
		panic("charm: reliability protocol is sim-only (real backend transport is reliable)")
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 4
	}
	if cfg.AckBytes <= 0 {
		cfg.AckBytes = 16
	}
	rts.rel = &reliableState{cfg: cfg}
}

// reliableState is the protocol engine: a sequence counter for flow ids
// plus the configuration. Per-message state lives in closures — the
// simulation is single-threaded, so no locking anywhere.
type reliableState struct {
	cfg     Reliability
	nextSeq int
}

// send moves one message through the reliable protocol. deliver is the
// idempotent delivery continuation built by RTS.transport (it dedups
// replays itself and settles the quiescence count on first delivery).
//
// Protocol: each attempt is a full Transfer tagged KindCharmMsg with the
// message's sequence number as flow id. The receiver acks every copy it
// sees (acks are small Transfers tagged KindCharmAck; re-acking replays
// covers the ack-lost case). The sender arms a timeout per attempt; an
// ack cancels it, expiry retransmits with doubled timeout until
// MaxRetries is exhausted, at which point the failure is reported through
// RTS.ReportError and the quiescence counter is released so the
// simulation can settle instead of hanging.
func (st *reliableState) send(rts *RTS, src, dst int, cost netmodel.PathCost, deliver func()) {
	seq := st.nextSeq
	st.nextSeq++
	ackCost := rts.plat.CharmMsg.Resolve(st.cfg.AckBytes + rts.plat.HeaderBytes)
	rto := st.cfg.RTO
	if rto == 0 {
		// Four unloaded round trips plus fixed slack: loose enough that
		// scheduler queueing rarely triggers spurious retransmissions
		// (which would be correct — the receiver dedups — but noisy).
		rto = 4*(cost.OneWay()+ackCost.OneWay()) + sim.Microseconds(20)
	}

	acked := false
	delivered := false
	failed := false
	var timer *sim.Event
	var attempt func(try int, rto sim.Time)

	onAck := func() {
		if acked {
			return
		}
		acked = true
		if timer != nil {
			timer.Cancel()
		}
		if rts.rec != nil {
			rts.rec.Incr(trace.CntAcks, 1)
		}
	}

	received := func() {
		if failed {
			// A severely delayed copy landing after the sender declared the
			// message dead: the flight's quiescence count is already
			// released, so delivering now would corrupt it. Discard.
			if rts.rec != nil {
				rts.rec.Incr(trace.CntDupDiscards, 1)
			}
			return
		}
		delivered = true
		deliver() // idempotent: replays are discarded and counted inside
		rts.net.Transfer(dst, src, ackCost, netmodel.TransferHooks{
			Kind:     netmodel.KindCharmAck,
			Flow:     seq,
			OnArrive: onAck,
		})
	}

	attempt = func(try int, rto sim.Time) {
		rts.net.Transfer(src, dst, cost, netmodel.TransferHooks{
			Kind:     netmodel.KindCharmMsg,
			Flow:     seq,
			OnArrive: received,
		})
		timer = rts.eng.Schedule(rto, func() {
			if acked {
				return
			}
			if try >= st.cfg.MaxRetries {
				if delivered {
					// The payload landed; only acks kept dying. Nothing to
					// report — the message did its job and the quiescence
					// count was settled by delivery.
					return
				}
				failed = true
				if rts.rec != nil {
					rts.rec.Incr(trace.CntFailedMsgs, 1)
				}
				rts.ReportError(fmt.Errorf(
					"charm: message seq %d (%d→%d) lost after %d retransmissions",
					seq, src, dst, st.cfg.MaxRetries))
				rts.qdDec() // give up the flight so quiescence can settle
				return
			}
			if rts.rec != nil {
				rts.rec.Incr(trace.CntRetransmits, 1)
			}
			attempt(try+1, 2*rto)
		})
	}
	attempt(0, rto)
}
