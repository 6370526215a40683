package netrt

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/bufpool"
)

// TestAbortedRunDrainsPool audits the abort cascade for pooled-buffer
// leaks, once per transport: a two-rank mesh with an endless eager
// chain in flight loses rank 1 to Die() (the in-process kill -9), both
// runs unwind with errors, and once every connection goroutine has
// drained, the pool's ledger over the test must balance — every Get
// matched by a Put or a Dropped. Under -race the pool's debug tracking
// is on, so a leak also shows up as a named outstanding buffer.
//
// The shm variant is the satellite assertion for the ring transport:
// frames ride the shared rings (a producer that Puts its buffer the
// moment the ring accepted the copy) instead of the TCP outbox, and an
// aborted run must leave the ledger just as balanced.
//
// The deliver handler releases the pooled wire buffer on the reader
// goroutine, before enqueueing follow-on work: buffer ownership then
// never crosses into the scheduler, so the audit isolates the transport
// paths (writer outbox drain, reader dispatch-refused Puts, goodbye
// frames on dead connections) that the abort cascade exercises.
func TestAbortedRunDrainsPool(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shmOff bool
	}{{"shm", false}, {"tcp", true}} {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.shmOff && !shmSupported {
				t.Skip("shm transport unsupported on this platform")
			}
			testAbortedRunDrainsPool(t, Config{ShmOff: tc.shmOff})
		})
	}
}

func testAbortedRunDrainsPool(t *testing.T, base Config) {
	before := bufpool.Default.Stats()

	nodes, err := StartLocalConfig(2, base)
	if err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	rts := make([]*Runtime, 2)
	for i, n := range nodes {
		rt, err := n.NewRuntime(4)
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
		rts[i] = rt
	}

	payload := bytes.Repeat([]byte{0x7E}, 1024)
	for i := range rts {
		rt := rts[i]
		rt.SetDeliver(func(e Env, pooled []byte) {
			env := e
			bufpool.Put(pooled)
			rt.Enqueue(env.DstPE, func() {
				if env.Tag > 0 {
					rt.SendMsg(&Env{Kind: EnvPE, Array: -1, SrcPE: env.DstPE,
						DstPE: env.SrcPE, Tag: env.Tag - 1, Data: payload})
				}
			})
		})
	}
	// A chain far too long to finish before the kill lands.
	rts[0].Enqueue(0, func() {
		rts[0].SendMsg(&Env{Kind: EnvPE, Array: -1, SrcPE: 0, DstPE: 2,
			Tag: 1 << 30, Data: payload})
	})

	go func() {
		time.Sleep(50 * time.Millisecond)
		nodes[1].Die()
	}()

	done := make(chan struct{})
	go func() {
		runAll(rts)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("runs hung after the kill")
	}
	for i, rt := range rts {
		if len(rt.Errors()) == 0 {
			t.Errorf("rank %d survived the kill without an error", i)
		}
	}

	// Close tears down the survivors' connection goroutines; the writer
	// outbox drains and readers release asynchronously, so poll for the
	// ledger to settle.
	for _, n := range nodes {
		n.Close()
	}
	poolSettles(t, before)
}
