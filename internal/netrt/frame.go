// Package netrt is the distributed execution backend: it runs the
// message-driven programs of this repository across multiple OS
// processes connected by TCP sockets — and, between processes on one
// host, by shared-memory rings — emulating the paper's network protocol
// stack in live code. Each process hosts a contiguous block of PEs on a
// local realrt goroutine runtime; Charm++ messages cross process
// boundaries as eager frames below a size threshold and as a rendezvous
// (RTS/CTS/data) exchange above it — the same split the netmodel
// personalities price — while CkDirect puts become registered-buffer
// writes: the payload lands directly in the preregistered destination
// region (the sender's memcpy into the shared arena on a shm edge, the
// receiving process's deposit from the stream otherwise) and the
// sentinel word is release-stored last, so the unmodified poll loop in
// internal/ckdirect detects completion with no callback message,
// preserving the paper's unsynchronized one-sided semantics.
//
// The design is SPMD: every process runs the identical program setup, so
// chare arrays, entry points and CkDirect handles carry the same ordinal
// identities everywhere, and only wire-serializable identities (array
// ordinal, element index, EP, handle ID) ever cross a process boundary.
//
// Termination reuses the realrt work-credit discipline, lifted to a
// coordinator-rooted distributed sum: each process counts app frames
// sent and received, rank 0 probes all ranks, and the run halts only
// after two consecutive probe rounds agree that every process is idle
// and the global sent/received sums match and did not move — the
// classic four-counter termination argument.
package netrt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/bufpool"
)

// Frame types. App frames (eager/rts/cts/data/put/cast/move/loc) carry
// program traffic and are what termination detection counts; every other
// type is runtime control and is never counted. Which transport a frame
// takes on a shared-memory edge is a separate rule (ridesRing): the ring
// carries everything but membership and liveness (hello/join/peers/
// shmoffer/shmack/ping/bye/leave/dialreq), which stay on TCP.
const (
	// FHello opens a first-contact worker-to-worker edge: A = the
	// dialing (lower) rank. The shm offer follows on the same socket.
	FHello byte = iota + 1
	// FJoin is a worker joining the coordinator's star, at bootstrap
	// and again at every rejoin: A = sender rank, payload = the worker's
	// own listen address.
	FJoin
	// FPeers is the coordinator's reply once every rank has joined:
	// payload = newline-joined listen addresses indexed by rank.
	FPeers
	// FEager is a small Charm message: payload = encoded Env.
	FEager
	// FRTS requests a rendezvous transfer: A = transfer id, B = bytes.
	FRTS
	// FCTS grants a rendezvous transfer: A = transfer id.
	FCTS
	// FData is the granted rendezvous body: A = transfer id, payload =
	// encoded Env.
	FData
	// FPut is a one-sided put into a preregistered buffer: A = CkDirect
	// handle id, payload = the raw source bytes.
	FPut
	// FCast is an array broadcast: payload = encoded Env; the receiving
	// process delivers to every local element of the array.
	FCast
	// FProbe is the coordinator's termination probe: A = epoch.
	FProbe
	// FReport answers a probe: A = epoch, B = idle flag, C = frames
	// sent, D = frames received (app frames only).
	FReport
	// FHalt announces global termination of the run generation.
	FHalt
	// FPing is an idle keepalive; it carries nothing and proves only
	// that the peer process is alive.
	FPing
	// FBye announces an abort: A = origin rank, payload = reason. Every
	// receiver cascades into its own abort so no process hangs waiting
	// for traffic that will never come.
	FBye
	// FLeave is a graceful goodbye: rank B has finished every run
	// generation through A and is closing its side of the mesh. Sent by
	// the leaver itself (B = sender), the EOF that follows on this
	// connection is expected teardown — not a lost peer; rank 0 relays
	// it unchanged to the ranks that have no edge to the leaver. A run
	// the leaver has NOT finished (generation > A) can no longer
	// complete and aborts on receipt.
	FLeave
	// FJob is the coordinator's job announcement in service mode
	// (internal/serve): A = job sequence number, payload = the encoded
	// job spec every rank must execute next (seq -1, no payload: shut
	// down). Control traffic, never counted by termination detection; on
	// a shm edge it rides the ring, ahead of the run's own frames.
	FJob
	// FJobDone is a worker's job report back to the coordinator: A = job
	// sequence number, payload = the encoded per-rank outcome. Control
	// traffic; rides the ring on a shm edge.
	FJobDone
	// FShmOffer proposes a shared-memory link for this edge during
	// bootstrap: payload = "unixName\ntoken\nhostID", A = ring bytes,
	// B = arena bytes. An empty payload is an explicit decline (shm
	// disabled or unsupported on the offering side). Exchanged
	// synchronously on the raw socket before the frame goroutines
	// start, so it never interleaves with app traffic.
	FShmOffer
	// FShmAck answers an offer: A = 1 when the receiver mapped the
	// segment and every frame of the edge but membership and liveness
	// (ridesRing) moves to the shm rings, A = 0 when it stays on TCP.
	FShmAck
	// FShmReg advertises a CkDirect destination buffer placed inside
	// the shm arena, receiver → sender: Run = generation, A = handle
	// id, B = arena offset, C = byte size. Control traffic on the ring,
	// held until Run when made during setup; a sender holding one memcpys
	// its puts straight into the mapped arena and release-stores the
	// sentinel there — no frame follows the put.
	FShmReg
	// FMove ships a migrating array element's packed state from its old
	// hosting rank to its new one: A = array ordinal, payload = the
	// element index (four little-endian int64s) followed by the packed
	// state (charm.PackElement). A counted app frame — termination must
	// not conclude around an element in flight.
	FMove
	// FLoc broadcasts a load-balancing plan from the root rank:
	// payload = the encoded move list. Every receiver applies the
	// identical location updates (SPMD bookkeeping). A counted app
	// frame, like the FCast it is morally a specialization of.
	FLoc
	// FDialReq asks a lower rank to open a first-contact mesh edge: A =
	// the rank that should dial, B = the rank asking to be dialed. The
	// connection initiator is always the lower rank (the same
	// convention as the star, where workers dial rank 0 — it fixes who
	// offers and who accepts the shm segment), so when a higher rank
	// needs the edge first it relays this request through the
	// coordinator's always-open star: requester → rank 0 → rank A, which
	// then dials the requester and flushes both sides' stashed frames.
	FDialReq
	frameTypeMax
)

// Wire format: an 8-byte header (magic "CK", version, type, little-
// endian uint32 body length) followed by the body — the run generation
// and four type-specific int64 fields, then the variable payload.
const (
	frameMagic0  = 'C'
	frameMagic1  = 'K'
	FrameVersion = 1

	frameHeaderLen = 8
	frameFixedBody = 40 // Run + A..D

	// MaxFrameBody caps a frame body so a corrupt length prefix cannot
	// make a reader allocate unboundedly.
	MaxFrameBody = 64 << 20
)

// Frame is one wire message. The meaning of A..D depends on Type; Run is
// the run generation app frames belong to (frames for a future
// generation are buffered by the receiving node until that run starts).
type Frame struct {
	Type       byte
	Run        int64
	A, B, C, D int64
	Payload    []byte
}

// frameWireLen is the full on-wire size of a frame carrying payloadLen
// bytes — what a pooled encode buffer must hold.
func frameWireLen(payloadLen int) int { return frameHeaderLen + frameFixedBody + payloadLen }

// appendFrameHeader writes the 8-byte header plus the fixed body fields
// for a frame whose payload will be payloadLen bytes. The caller
// appends exactly payloadLen payload bytes afterwards; validity of typ
// and payloadLen is the caller's job (AppendFrame checks, the pooled
// send paths encode only known-good frames).
func appendFrameHeader(dst []byte, typ byte, run, a, b, c, d int64, payloadLen int) []byte {
	dst = append(dst, frameMagic0, frameMagic1, FrameVersion, typ)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(frameFixedBody+payloadLen))
	for _, v := range [...]int64{run, a, b, c, d} {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}

// AppendFrame encodes f onto dst and returns the extended slice.
func AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	if f.Type == 0 || f.Type >= frameTypeMax {
		return dst, fmt.Errorf("netrt: encode of unknown frame type %d", f.Type)
	}
	if len(f.Payload) > MaxFrameBody-frameFixedBody {
		return dst, fmt.Errorf("netrt: frame payload of %d bytes exceeds the %d-byte cap", len(f.Payload), MaxFrameBody-frameFixedBody)
	}
	dst = appendFrameHeader(dst, f.Type, f.Run, f.A, f.B, f.C, f.D, len(f.Payload))
	return append(dst, f.Payload...), nil
}

// EncodeFrame encodes f into a fresh buffer.
func EncodeFrame(f *Frame) ([]byte, error) {
	return AppendFrame(make([]byte, 0, frameWireLen(len(f.Payload))), f)
}

// encodeFramePooled encodes f into a buffer drawn from the Default
// bufpool. Ownership of the returned buffer transfers with the frame:
// the peer writer returns it to the pool after the writev (callers that
// fail to hand it off must Put it themselves).
func encodeFramePooled(f *Frame) ([]byte, error) {
	return AppendFrame(bufpool.Get(frameWireLen(len(f.Payload)))[:0], f)
}

// DecodeFrame decodes one frame from the front of b, returning the
// frame and the number of bytes consumed. It never panics on truncated
// or corrupt input — every malformed shape is an error. The returned
// frame owns a fresh copy of its payload.
func DecodeFrame(b []byte) (Frame, int, error) {
	return DecodeFrameInto(b, nil)
}

// DecodeFrameInto is DecodeFrame with a caller-provided scratch buffer
// for the payload: when cap(scratch) holds it, the returned frame's
// Payload aliases scratch (sliced to payload length) and no allocation
// occurs; otherwise a fresh buffer is allocated exactly as DecodeFrame
// would. The caller owns scratch and must keep it alive for as long as
// the frame's payload is in use.
func DecodeFrameInto(b, scratch []byte) (Frame, int, error) {
	var f Frame
	if len(b) < frameHeaderLen {
		return f, 0, fmt.Errorf("netrt: truncated frame header (%d bytes)", len(b))
	}
	if b[0] != frameMagic0 || b[1] != frameMagic1 {
		return f, 0, fmt.Errorf("netrt: bad frame magic %#x %#x", b[0], b[1])
	}
	if b[2] != FrameVersion {
		return f, 0, fmt.Errorf("netrt: frame version %d, this build speaks %d", b[2], FrameVersion)
	}
	if b[3] == 0 || b[3] >= frameTypeMax {
		return f, 0, fmt.Errorf("netrt: unknown frame type %d", b[3])
	}
	body := int(binary.LittleEndian.Uint32(b[4:8]))
	if body < frameFixedBody || body > MaxFrameBody {
		return f, 0, fmt.Errorf("netrt: frame body length %d outside [%d,%d]", body, frameFixedBody, MaxFrameBody)
	}
	if len(b) < frameHeaderLen+body {
		return f, 0, fmt.Errorf("netrt: truncated frame body (%d of %d bytes)", len(b)-frameHeaderLen, body)
	}
	f.Type = b[3]
	fields := b[frameHeaderLen:]
	f.Run = int64(binary.LittleEndian.Uint64(fields[0:]))
	f.A = int64(binary.LittleEndian.Uint64(fields[8:]))
	f.B = int64(binary.LittleEndian.Uint64(fields[16:]))
	f.C = int64(binary.LittleEndian.Uint64(fields[24:]))
	f.D = int64(binary.LittleEndian.Uint64(fields[32:]))
	if n := body - frameFixedBody; n > 0 {
		src := fields[frameFixedBody : frameFixedBody+n]
		if cap(scratch) >= n {
			f.Payload = scratch[:n]
			copy(f.Payload, src)
		} else {
			f.Payload = append([]byte(nil), src...)
		}
	}
	return f, frameHeaderLen + body, nil
}

// frameMeta is the fixed prefix of one frame — everything except the
// payload — decoded straight off the stream so the reader can choose
// where the payload lands (a pooled buffer, or for FPut the registered
// destination region itself) before reading a single payload byte.
type frameMeta struct {
	typ        byte
	run        int64
	a, b, c, d int64
	payloadLen int
}

// readFrameMeta reads and validates the header and fixed body of one
// frame, leaving exactly payloadLen payload bytes unread on r. It
// allocates nothing: the fixed prefix is parsed in place in the bufio
// buffer via Peek/Discard — a stack scratch array would escape through
// the io.Reader interface and cost one heap allocation per frame.
func readFrameMeta(r *bufio.Reader) (frameMeta, error) {
	var m frameMeta
	hdr, err := r.Peek(frameHeaderLen + frameFixedBody)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return m, err
	}
	if hdr[0] != frameMagic0 || hdr[1] != frameMagic1 {
		return m, fmt.Errorf("netrt: bad frame magic %#x %#x", hdr[0], hdr[1])
	}
	if hdr[2] != FrameVersion {
		return m, fmt.Errorf("netrt: frame version %d, this build speaks %d", hdr[2], FrameVersion)
	}
	if hdr[3] == 0 || hdr[3] >= frameTypeMax {
		return m, fmt.Errorf("netrt: unknown frame type %d", hdr[3])
	}
	body := int(binary.LittleEndian.Uint32(hdr[4:8]))
	if body < frameFixedBody || body > MaxFrameBody {
		return m, fmt.Errorf("netrt: frame body length %d outside [%d,%d]", body, frameFixedBody, MaxFrameBody)
	}
	m.typ = hdr[3]
	fields := hdr[frameHeaderLen:]
	m.run = int64(binary.LittleEndian.Uint64(fields[0:]))
	m.a = int64(binary.LittleEndian.Uint64(fields[8:]))
	m.b = int64(binary.LittleEndian.Uint64(fields[16:]))
	m.c = int64(binary.LittleEndian.Uint64(fields[24:]))
	m.d = int64(binary.LittleEndian.Uint64(fields[32:]))
	m.payloadLen = body - frameFixedBody
	if _, err := r.Discard(len(hdr)); err != nil {
		return m, err
	}
	return m, nil
}

// readFrame reads one frame from a stream (bootstrap handshakes only;
// steady-state traffic uses readFrameMeta so payloads can land in
// pooled or preregistered memory). The returned frame owns its payload.
func readFrame(r *bufio.Reader) (Frame, error) {
	m, err := readFrameMeta(r)
	if err != nil {
		return Frame{}, err
	}
	f := Frame{Type: m.typ, Run: m.run, A: m.a, B: m.b, C: m.c, D: m.d}
	if m.payloadLen > 0 {
		f.Payload = make([]byte, m.payloadLen)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return Frame{}, err
		}
	}
	return f, nil
}

// writeFrame encodes and writes one frame synchronously (bootstrap
// handshakes only; steady-state traffic rides the batching writer).
func writeFrame(w io.Writer, f *Frame) error {
	b, err := EncodeFrame(f)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}
