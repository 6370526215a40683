package netrt

import (
	"errors"
	"fmt"
)

// NetError is a typed network failure: a peer process died, a
// connection broke, or a keepalive window expired. It surfaces through
// Result.Errors of the application that was running when the failure
// hit, so a killed peer produces a diagnosable error instead of a hung
// quiescence.
type NetError struct {
	// Rank is the local rank that observed the failure.
	Rank int
	// Peer is the remote rank the failure concerns.
	Peer int
	// Op names the operation that failed: "dial", "read", "write",
	// "keepalive", "peer-abort", "bootstrap", "config", "invariant".
	Op string
	// Err is the underlying cause.
	Err error
}

// ErrBadConfig is the sentinel under every configuration rejection:
// errors.Is(err, ErrBadConfig) distinguishes "you asked for an
// impossible world" from a world that failed to form.
var ErrBadConfig = errors.New("invalid netrt configuration")

// badConfig wraps a configuration defect as a typed, non-recoverable
// NetError (Peer -1 keeps it outside Recoverable's rank-death shape).
func badConfig(rank int, err error) error {
	return &NetError{Rank: rank, Peer: -1, Op: "config", Err: fmt.Errorf("%w: %v", ErrBadConfig, err)}
}

// Error formats the failure.
func (e *NetError) Error() string {
	return fmt.Sprintf("netrt: rank %d lost peer %d (%s): %v", e.Rank, e.Peer, e.Op, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *NetError) Unwrap() error { return e.Err }

// Recoverable reports whether a run's failure set is a rank-death the
// recovery driver can handle: at least one error, every error a typed
// NetError concerning a concrete peer (Peer >= 0), and none of them a
// bootstrap failure — a world that never formed has nothing to rejoin.
func Recoverable(errs []error) bool {
	if len(errs) == 0 {
		return false
	}
	for _, err := range errs {
		var ne *NetError
		if !errors.As(err, &ne) {
			return false
		}
		if ne.Peer < 0 || ne.Op == "bootstrap" {
			return false
		}
	}
	return true
}
