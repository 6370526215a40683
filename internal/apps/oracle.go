package apps

import "sync"

// oracleMaxValues bounds the reference an Oracle keeps: 64 Ki values,
// 512 KiB. A larger reference is solved on every call and left to the
// collector, so a long-lived daemon pins at most this much per app.
const oracleMaxValues = 1 << 16

// Oracle holds an app's serial-reference answer for the last shape it
// validated: a one-entry, read-only cache keyed by every input of the
// reference solve. It pays only where one process validates a shape more
// than once — the ranks of an in-process world, or a served job stream
// that repeats a shape — and costs one lookup elsewhere. A miss solves
// outside the lock; concurrent misses may each solve, and whichever
// finishes last is kept — their answers are identical.
type Oracle[K comparable] struct {
	mu  sync.Mutex
	key K
	ref []float64
}

// Get returns the reference for key, calling solve on a miss. The slice
// is shared by every caller of the same shape: read it, never write it.
func (o *Oracle[K]) Get(key K, solve func() []float64) []float64 {
	o.mu.Lock()
	ref, hit := o.ref, o.ref != nil && o.key == key
	o.mu.Unlock()
	if hit {
		return ref
	}
	ref = solve()
	if len(ref) <= oracleMaxValues {
		o.mu.Lock()
		o.key, o.ref = key, ref
		o.mu.Unlock()
	}
	return ref
}
