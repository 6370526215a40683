package ckdirect

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync/atomic"
)

// Distributed-backend receive path: a CkDirect put that crossed a
// process boundary arrives as a raw-byte frame addressed by handle id.
// The deposit is the same copy + sentinel release-store the real backend
// performs in shared memory — the socket hop replaces the RDMA write,
// and everything after the deposit (the poll pass, detection, the user
// callback) is the unmodified real-backend machinery. No callback
// message, no scheduler involvement on the wire path: the paper's
// unsynchronized one-sided semantics, emulated across processes.

// netPutStream is the one inbound put path: the frame reader has
// parsed the put's meta and its payload bytes are still on the stream,
// so they are read directly into the preregistered destination buffer —
// no intermediate slice exists anywhere between the kernel socket
// buffer and receiver memory. A put frame buffered before its run
// attached replays through here too, streamed from its payload bytes.
// The final 8 bytes stage in the handle's tail scratch and publish via
// the sentinel release-store only after every other byte has landed,
// preserving the acquire/release pairing with the receiver's poll pass.
//
// A put that fails validation consumes exactly size bytes (the stream
// stays in sync) and is reported out of band; only an I/O failure —
// after which the stream position is unknowable — returns an error,
// which kills the connection. The work credit is taken only once the
// full payload has been read, immediately before the publishing store:
// until then the global sent/recv counters are unmatched, so
// termination cannot conclude around a half-streamed put.
func (m *Manager) netPutStream(id int64, size int, r io.Reader) error {
	if id < 0 || id >= int64(len(m.handles)) {
		m.rts.ReportError(fmt.Errorf("ckdirect: wire put for unknown handle %d (have %d)", id, len(m.handles)))
		return discardPut(r, size)
	}
	h := m.handles[id]
	if !m.rts.HostsPE(h.recvPE) {
		m.rts.ReportError(fmt.Errorf("ckdirect: wire put for handle %d on PE %d, not hosted here", id, h.recvPE))
		return discardPut(r, size)
	}
	if want := h.recvBuf.Size(); size != want {
		m.rts.ReportError(fmt.Errorf("ckdirect: wire put for handle %d carries %d bytes, transfer is %d", id, size, want))
		return discardPut(r, size)
	}
	last, err := m.depositStream(h, r)
	if err != nil {
		return err
	}
	// Once the sentinel is out the handle is the receiver's again (its
	// callback may rehome it), so the PE to kick is read before; for an
	// arena buffer the credited store is what orders the read before the
	// detection for the race detector, which cannot see atomics on the
	// shared mapping.
	pe := h.recvPE
	m.net.PutIssued()
	if h.arena {
		h.credited.Store(true)
	}
	atomic.StoreUint64(h.sw, last)
	m.net.Kick(pe)
	return nil
}

// depositStream lands the streamed payload into h's registered receive
// buffer, holding back the transfer's final word: it returns that word
// for the caller to release-store, so the sentinel position cannot leave
// the out-of-band state before the rest of the payload is in place.
func (m *Manager) depositStream(h *Handle, r io.Reader) (uint64, error) {
	dst := h.recvBuf.Bytes()
	if _, err := io.ReadFull(r, dst[:len(dst)-8]); err != nil {
		return 0, err
	}
	if _, err := io.ReadFull(r, h.tail8[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(h.tail8[:]), nil
}

// discardPut consumes exactly size payload bytes of a rejected put so
// the frame stream stays in sync; its error is a stream failure.
func discardPut(r io.Reader, size int) error {
	_, err := io.CopyN(io.Discard, r, int64(size))
	return err
}

// placeRecvInShm moves a handle's receive buffer into the shm arena
// shared with the sending rank, so that rank's puts become the paper's
// put — one memcpy and the sentinel's release-store, by the sender —
// instead of a framed payload. Runs on the receiving rank at AssocLocal
// time (SPMD setup executes AssocLocal everywhere, so by then the handle
// knows its sender). Best-effort: any reason not to — in-process
// sender, no shm link, arena full — leaves the handle on its
// heap buffer and every transport path still works, just without the
// zero-frame deposit.
func (m *Manager) placeRecvInShm(h *Handle) {
	if m.net == nil || !m.rts.HostsPE(h.recvPE) || m.rts.HostsPE(h.sendPE) {
		return
	}
	size := h.recvBuf.Size()
	if size < 8 || size%8 != 0 || !h.recvBuf.Rebindable() {
		return
	}
	rank := m.net.RankOf(h.sendPE)
	buf, off, ok := m.net.AllocPutRegion(rank, size)
	if !ok {
		return
	}
	if err := h.recvBuf.Rebind(buf); err != nil {
		return
	}
	// The sentinel pointer still aims at the old backing array; rebuild
	// it over the arena bytes and re-stamp, then tell the sender where
	// the buffer lives. A put racing ahead of the registration just
	// takes the frame path — into this same rebound buffer.
	sw, err := h.recvBuf.Uint64At(size - 8)
	if err != nil {
		return
	}
	h.sw = sw
	h.arena = true
	m.writeSentinel(h)
	m.net.RegisterPutBuffer(rank, int64(h.id), off, int64(size))
}
