package ckdirect

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
)

// Real-execution backend for CkDirect: the paper's mechanism, executed
// literally on shared memory instead of modelled in virtual time.
//
// A put is a memcpy into the receiver's registered buffer followed by an
// atomic release-store of the final 8-byte word — the sentinel position.
// The receiver's scheduler loop polls its handle queue with atomic
// acquire-loads of that word; a value different from the out-of-band
// pattern means the payload (whose last word the store published) is
// fully visible, per Go's memory model the release-store/acquire-load
// pair orders every plain byte of the copy before every receiver read.
// There are no locks, no queues and no notifications anywhere on this
// path: delivery is genuinely unsynchronized and one-sided, and the
// receiver synchronizes only through its own polling — exactly the
// protocol of paper §2.1.
//
// Termination safety: the backend's put seam takes a work credit before
// the release-store publishes the payload, and realDetect returns it only
// after the receiver's callback completes, so the runtime cannot reach
// global quiescence while a landed put sits undetected (see realrt).
//
// A sentinel collision (payload last word equals the out-of-band pattern)
// behaves like real hardware: the arrival is undetectable and the channel
// stalls — surfaced by the realrt stall watchdog (and, in checked mode,
// reported at Put time).

// realPut executes one put on the real backend. It runs synchronously on
// the sender's goroutine and performs sender-side misuse checks only:
// receiver-confined state (state machine, poll-queue membership) must not
// be read here — that is the entire point of an unsynchronized put.
func (m *Manager) realPut(h *Handle, onLocalDone func()) {
	// The op was prebuilt at AssocLocal (closures, wire identity, cost
	// hooks); only the per-call local-completion hook varies. The copy
	// is a stack value — this path allocates nothing.
	op := h.putOp
	op.Hooks.OnSendDone = onLocalDone
	m.rts.PutTransfer(op)
}

// realDeposit copies the payload and publishes it: every byte except the
// sentinel word lands with plain copies, then the payload's own final
// word is release-stored into the sentinel position.
func (m *Manager) realDeposit(h *Handle) { m.depositBytes(h, h.sendBuf.Bytes()) }

// depositBytes lands src into h's registered receive buffer — plain
// copies for everything but the transfer's final word, which is
// release-stored into the sentinel position so the receiver's
// acquire-loading poll pass orders the whole payload behind it. src is
// the local source region. The caller took the put's credit already, so
// an arena-resident buffer is marked credited before the store (see
// realDetect).
func (m *Manager) depositBytes(h *Handle, src []byte) {
	if h.arena {
		h.credited.Store(true)
	}
	dst := h.recvBuf.Bytes()
	if h.strided == nil {
		pos := len(dst) - 8
		copy(dst[:pos], src[:pos])
		atomic.StoreUint64(h.sw, binary.LittleEndian.Uint64(src[pos:]))
		return
	}
	l := h.strided
	for b := 0; b < l.Count-1; b++ {
		copy(dst[l.Offset+b*l.Stride:l.Offset+b*l.Stride+l.BlockLen],
			src[b*l.BlockLen:(b+1)*l.BlockLen])
	}
	// Last block: all but its final word plainly, the final word as the
	// publishing release-store. BlockLen >= 8 is guaranteed by layout
	// validation (SubWordError), so the sub-word slices below cannot go
	// negative.
	lastDst := l.Offset + (l.Count-1)*l.Stride
	lastSrc := (l.Count - 1) * l.BlockLen
	copy(dst[lastDst:lastDst+l.BlockLen-8], src[lastSrc:lastSrc+l.BlockLen-8])
	atomic.StoreUint64(h.sw, binary.LittleEndian.Uint64(src[lastSrc+l.BlockLen-8:]))
}

// Cold-tier pacing for the real backend's poll pass: a hot handle whose
// sentinel survives pollDemoteAfter consecutive scans unchanged moves to
// the cold tier, which is visited only every pollColdEvery-th pass (and
// on every full scan). Active channels re-enter hot on ReadyPollQ, so the
// steady-state pass cost tracks the number of *live* channels, not the
// number of registered ones — the real-backend rendering of the paper's
// §5.2 polling-overhead fix.
const (
	pollDemoteAfter = 256
	pollColdEvery   = 64
)

// realPoll is the receiver-side detection pass, installed as the realrt
// scheduler loop's polling hook: one atomic acquire-load per polled
// handle, callback on the spot when the sentinel changed. It reports
// whether anything was detected (the loop's backoff resets on progress).
// full forces a cold-tier scan; the scheduler loop sets it before parking
// and right after a wakeup, so an arrival on a demoted handle is caught
// before the worker sleeps and immediately after the put's kick — a cold
// handle's worst case is pollColdEvery hot passes on a busy PE, never a
// parked PE sleeping through its arrival.
//
// Each tier pass iterates a snapshot of its slice: detection mutates the
// tier (pollRemove swaps, callbacks may re-insert, demotion moves
// entries), and the nil/inPollQ/pollCold checks skip entries the mutation
// left stale — a handle swapped below the scan index is simply caught on
// the next pass.
func (m *Manager) realPoll(pe int, full bool) bool {
	ps := &m.polled[pe]
	ps.passes++
	hit := false
	hot := ps.hot
	for i := 0; i < len(hot); i++ {
		h := hot[i]
		if h == nil || !h.inPollQ || h.pollCold {
			continue
		}
		if atomic.LoadUint64(h.sw) == h.oob {
			h.pollMisses++
			if h.pollMisses >= pollDemoteAfter {
				m.pollDemote(h)
			}
			continue
		}
		hit = true
		m.realDetect(h)
	}
	if len(ps.cold) > 0 && (full || ps.passes%pollColdEvery == 0) {
		cold := ps.cold
		for i := 0; i < len(cold); i++ {
			h := cold[i]
			if h == nil || !h.inPollQ || !h.pollCold {
				continue
			}
			if atomic.LoadUint64(h.sw) == h.oob {
				continue
			}
			hit = true
			m.realDetect(h)
		}
	}
	return hit
}

// realDetect completes one delivery on the receiver's goroutine: leave
// the polling queue, run the user callback, then release the put's work
// credit. The callback may Put, Ready, or enqueue entry methods; any
// credits those take are live before this one is returned, so quiescence
// cannot slip past the chain.
//
// A put the sender deposited straight into an arena-resident buffer
// (net backend over shm) arrived with no frame and so with no credit and
// no receipt: both are taken here, by PutLanded, before the callback.
// Every other deposit into such a buffer marked it credited first.
func (m *Manager) realDetect(h *Handle) {
	if h.arena && !h.credited.Swap(false) {
		m.net.PutLanded()
	}
	m.pollRemove(h)
	h.pollMisses = 0
	h.state = Fired
	h.delivered++
	h.notifyDelivery()
	h.cb(h.recvCtx)
	m.rt.PutDetected()
}

// ErrSimOnly is what creating a §6 extension channel (get, multicast,
// channel reduction) returns on a live backend, real or net: those
// extensions are cost-model studies built on simulator event scheduling.
var ErrSimOnly = errors.New("sim backend only")

// rejectSimOnly wraps ErrSimOnly with the refused extension's name.
func rejectSimOnly(what string) error {
	return fmt.Errorf("ckdirect: %s: %w", what, ErrSimOnly)
}
