package lb

import (
	"bytes"
	"testing"

	"repro/internal/charm"
)

// Decoder selectors for FuzzLBWire's first argument.
const (
	wireLoads byte = iota
	wirePlan
	wireMove
	wireKinds
)

// FuzzLBWire drives arbitrary bytes through the three load-balancer
// wire decoders: none may panic, and anything one accepts must
// re-encode byte-identically through its encoder.
func FuzzLBWire(f *testing.F) {
	loads := encodeLoads([]ElementLoad{
		{Array: 0, Index: charm.Idx3(1, 2, 3), PE: 1, BusyNS: 5000, Msgs: 7, Bytes: 4096},
		{Array: 1, Index: charm.Idx1(4), PE: 0},
	})
	plan := encodePlan([]Move{{Array: 0, Index: charm.Idx3(1, 2, 3), ToPE: 3}})
	move := encodeMove(charm.Idx2(5, 6), []byte("packed state"))
	f.Add(wireLoads, loads)
	f.Add(wirePlan, plan)
	f.Add(wireMove, move)
	f.Add(wireMove, encodeMove(charm.Idx1(0), nil))
	f.Add(wireLoads, encodeLoads(nil))
	f.Add(wirePlan, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	// Trailing bytes after a valid record: a decoder that ignores them
	// accepts an input its encoder cannot reproduce.
	f.Add(wireLoads, append(bytes.Clone(loads), 0))
	f.Add(wirePlan, append(bytes.Clone(plan), 1, 2, 3))
	f.Fuzz(func(t *testing.T, kind byte, b []byte) {
		var re []byte
		switch kind % wireKinds {
		case wireLoads:
			l, err := decodeLoads(b)
			if err != nil {
				return
			}
			re = encodeLoads(l)
		case wirePlan:
			mv, err := decodePlan(b)
			if err != nil {
				return
			}
			re = encodePlan(mv)
		case wireMove:
			idx, state, err := decodeMove(b)
			if err != nil {
				return
			}
			re = encodeMove(idx, state)
		}
		if !bytes.Equal(re, b) {
			t.Fatalf("decoder %d accepted % x, which re-encodes as % x", kind%wireKinds, b, re)
		}
	})
}
