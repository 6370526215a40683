package trace

import "sync/atomic"

// cacheLine is the padding unit that keeps two PEs' slots of a counter
// off each other's cache lines.
const cacheLine = 64

// slot is one PE's share of a counter. used is set by the first update,
// so a counter added to only with zero deltas still reads as present.
type slot struct {
	n, used atomic.Int64
	_       [cacheLine - 16]byte
}

func (s *slot) add(delta int64) {
	s.n.Add(delta)
	if s.used.Load() == 0 {
		s.used.Store(1)
	}
}

// block is the slots one registration allocated for a name; handles of
// that name and no greater width share it.
type block struct {
	name  string
	slots []slot
}

// sum returns the block's total and whether any slot was updated since
// it was made or last cleared.
func (b block) sum() (v int64, ok bool) {
	for i := range b.slots {
		n := b.slots[i].n.Load()
		v += n
		ok = ok || n != 0 || b.slots[i].used.Load() != 0
	}
	return v, ok
}

func (b block) clear() {
	for i := range b.slots {
		b.slots[i].n.Store(0)
		b.slots[i].used.Store(0)
	}
}

// Counter is a pre-registered handle on a named counter with one slot
// per PE of a contiguous range. Add is one atomic add on the caller's
// slot — no lock, no map lookup, no allocation — and Count, Counters,
// Reset and String see the slots live, summed with Incr's updates of the
// same name. The zero Counter (from a nil Recorder) drops every update.
type Counter struct {
	rec   *Recorder
	lo    int
	slots []slot
}

// Counter returns a handle on the named counter with slots for the n
// PEs starting at lo (at least one slot). Handles of the same name and
// no greater width share storage, so runtimes sharing a Recorder
// allocate a name's slots once.
func (r *Recorder) Counter(name string, lo, n int) Counter {
	if r == nil {
		return Counter{}
	}
	n = max(n, 1)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, b := range r.blocks {
		if b.name == name && len(b.slots) >= n {
			return Counter{rec: r, lo: lo, slots: b.slots}
		}
	}
	b := block{name: name, slots: make([]slot, n)}
	r.blocks = append(r.blocks, b)
	return Counter{rec: r, lo: lo, slots: b.slots}
}

// Add adds delta on behalf of PE pe. A PE outside the handle's range
// lands in the first slot, which is still exact, merely shared.
func (c *Counter) Add(pe int, delta int64) {
	if c.rec == nil || !c.rec.enabled {
		return
	}
	i := pe - c.lo
	if uint(i) >= uint(len(c.slots)) {
		i = 0
	}
	c.slots[i].add(delta)
}
