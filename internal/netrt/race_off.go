//go:build !race

package netrt

// The race-detector annotations of the two transports (race_on.go)
// compile to nothing in normal builds.
func raceWirePublish() {}
func raceWireObserve() {}
