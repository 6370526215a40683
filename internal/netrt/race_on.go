//go:build race

package netrt

import (
	"runtime"
	"unsafe"
)

// In-process worlds put both ends of every edge under one race detector,
// and it cannot see either transport order anything. The two ends of a
// shm ring map the same memfd at different virtual addresses, so the
// producer's tail store and the consumer's tail load are atomics on
// unrelated words; the TCP writer leaves through writev, which —
// unlike read and write — package syscall does not annotate. Without
// the edge, everything the wire orders (a put deposited after the
// receiver's app read the previous one and said so) reads as a race.
// wireSync is one stand-in word both ends can name: release-merge
// before publishing bytes, acquire after observing a frame — what
// package syscall does with ioSync for fd reads and writes.
var wireSync int64

func raceWirePublish() { runtime.RaceReleaseMerge(unsafe.Pointer(&wireSync)) }
func raceWireObserve() { runtime.RaceAcquire(unsafe.Pointer(&wireSync)) }
