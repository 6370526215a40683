package netrt

import (
	"bytes"
	"io"
	"net"
	"testing"

	"repro/internal/bufpool"
)

// TestEagerSendAllocs pins the steady-state allocation budget of one
// eager send at ≤ 2 allocs/op (the pre-pool path encoded a fresh frame
// buffer per send and copy-assembled batches; the pooled single-pass
// encode plus vectored writer needs none in steady state — the budget
// leaves slack for scheduler noise, not for regressions).
//
// The rig is a hand-assembled half of a mesh: a real peerConn whose
// writer drains over loopback TCP into an io.Discard sink. Only the
// writer goroutine runs — no reader, no keepalive — so AllocsPerRun's
// global Mallocs delta sees just the send path plus the writer.
func TestEagerSendAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("bufpool debug tracking allocates per Get/Put under -race")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- c
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	remote := <-accepted
	defer remote.Close()
	go io.Copy(io.Discard, remote)

	n := &Node{rank: 0, world: 2, completedGen: -1}
	n.peers = make([]*peerConn, 2)
	p := newPeerConn(n, 1, conn)
	n.peers[1] = p
	n.publishPeers()
	go p.writer()
	defer p.shutdown()

	env := &Env{Kind: EnvPE, Array: -1, SrcPE: 0, DstPE: 1, Tag: 3,
		Data: bytes.Repeat([]byte{0xAB}, 1024)}
	// Warm the buffer pool and the connection before measuring.
	for i := 0; i < 64; i++ {
		if !n.sendEnv(1, FEager, 0, env) {
			t.Fatal("send failed during warmup")
		}
	}
	if avg := testing.AllocsPerRun(500, func() {
		n.sendEnv(1, FEager, 0, env)
	}); avg > 2 {
		t.Errorf("eager send allocates %.2f per op, want <= 2 (pre-pool baseline ~6)", avg)
	}
}
