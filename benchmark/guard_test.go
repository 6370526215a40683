package main

import (
	"encoding/binary"
	"io"
	"testing"
)

// quiet silences the human report for the duration of a test.
func quiet(t *testing.T) {
	old := logw
	logw = io.Discard
	t.Cleanup(func() { logw = old })
}

// Payload honesty. BENCH_nethw/BENCH_realhw compared a CkDirect row that
// moved its bytes against a message row sent with Data == nil, which
// copies nothing on real and ships only the fixed envelope on net. In
// every harness-owned workload the msg arm must really move the stated
// payload: the runtime counts at least 2 x payload bytes per op, and on
// net the envelope on the wire is at least the payload.
func TestMsgArmMovesItsPayload(t *testing.T) {
	quiet(t)
	for _, w := range workloads {
		r, ok := newRunner(w.Name).(*ppRunner)
		if !ok {
			continue // stencil-shm and serve-shm run the app's own validated faces
		}
		t.Run(w.Name, func(t *testing.T) {
			if err := r.setup(1); err != nil {
				t.Fatal(err)
			}
			defer r.close()
			b := r.block(armMsg, r.smokeLimit())
			if b.failed != 0 || b.ops == 0 {
				t.Fatalf("msg block: %d ops, %d failed", b.ops, b.failed)
			}
			perOp := float64(b.counters["charm.bytes"]) / float64(b.counterOps)
			if perOp < 2*float64(r.shape.payload) {
				t.Errorf("charm.bytes_per_op = %.0f, want >= 2 x %d", perOp, r.shape.payload)
			}
			if msgs := float64(b.counters["charm.msgs"]) / float64(b.counterOps); msgs != float64(r.shape.fan+1) {
				t.Errorf("charm.msgs_per_op = %v, want %d", msgs, r.shape.fan+1)
			}
			if r.shape.backend != onReal && b.envWire < r.shape.payload {
				t.Errorf("EnvWireSize of the sent envelope = %d, want >= %d", b.envWire, r.shape.payload)
			}
			// And the ckd arm moves the same bytes, through regions.
			c := r.block(armCkd, r.smokeLimit())
			if c.failed != 0 {
				t.Fatalf("ckd block: %d failed", c.failed)
			}
			want := float64(r.shape.fan*r.shape.payload + r.shape.credit)
			if got := float64(c.counters["ckd.bytes"]) / float64(c.counterOps); got != want {
				t.Errorf("ckdirect.bytes_per_op = %v, want %v", got, want)
			}
		})
	}
}

// The stamp and block-compare checks must actually catch a wrong byte.
func TestChecksCatchCorruption(t *testing.T) {
	quiet(t)
	shape := newRunner("pp-real-1k").(*ppRunner).shape
	p := &ppRun{shape: shape}
	p.srcA, p.srcB = payloads(shape, 1)
	stamped := func(stamp uint64) []byte {
		b := append([]byte(nil), p.srcA[0]...)
		binary.LittleEndian.PutUint64(b[:8], stamp)
		return b
	}
	if p.checkFwd(0, stamped(1)); p.fails.Load() != 0 {
		t.Fatalf("clean transfer rejected")
	}
	if p.checkFwd(0, stamped(1|finalFlag)); p.fails.Load() != 0 {
		t.Fatalf("clean final transfer rejected")
	}
	if p.checkFwd(0, stamped(2)); p.fails.Load() != 1 {
		t.Errorf("wrong stamp not caught")
	}
	final := stamped(1 | finalFlag)
	final[500] ^= 0xff
	if p.checkFwd(0, final); p.fails.Load() != 2 {
		t.Errorf("corrupt final block not caught")
	}
}
