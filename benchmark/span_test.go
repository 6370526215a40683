package main

import "testing"

// Self time is a span's duration minus what its direct children cover:
// overlapping children count once, a child is clipped to its parent, and
// a grandchild only reduces its own parent.
func TestSelfTimeArithmetic(t *testing.T) {
	tr := newTracer()
	root := tr.add("op", 1, 0, 0, 0, 0, 100)
	a := tr.add("a", 1, root, 0, 0, 10, 30)
	tr.add("b", 1, root, a, 1, 20, 50)     // overlaps a: [10,50] covered once
	tr.add("late", 1, root, 0, 1, 90, 120) // clipped to [90,100]
	tr.add("early", 1, root, 0, 1, 60, 55) // a flight that ended before its cause returned: covers nothing
	tr.add("inner", 1, a, 0, 0, 12, 17)    // grandchild
	self := selfTimes(tr.spans)
	if got := self[root]; got != 50 {
		t.Errorf("root self = %d, want 50", got)
	}
	if got := self[a]; got != 15 {
		t.Errorf("a self = %d, want 15", got)
	}
	if got := durations(tr.spans, "b"); len(got) != 1 || got[0] != 30 {
		t.Errorf("durations(b) = %v, want [30]", got)
	}
}

// Pooling blocks must keep parent and cause links pointing at the same
// spans after ids shift.
func TestPooledSpansKeepLinks(t *testing.T) {
	block := func() []span {
		tr := newTracer()
		root := tr.add("op", 1, 0, 0, 0, 0, 10)
		c := tr.add("call", 1, root, 0, 0, 1, 2)
		tr.add("flight", 1, root, c, 1, 2, 5)
		return tr.spans
	}
	var d armData
	d.add(blockResult{spans: block()})
	d.add(blockResult{spans: block()})
	if len(d.spans) != 6 {
		t.Fatalf("pooled %d spans, want 6", len(d.spans))
	}
	for i, s := range d.spans {
		if s.ID != i+1 {
			t.Errorf("span %d has id %d", i, s.ID)
		}
	}
	if f := d.spans[5]; f.Parent != 4 || f.Cause != 5 {
		t.Errorf("second block's flight links to parent %d cause %d, want 4 and 5", f.Parent, f.Cause)
	}
}
