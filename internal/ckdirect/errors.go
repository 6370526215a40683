package ckdirect

import "fmt"

// SubWordError reports a receive buffer too small to carry the 8-byte
// out-of-band sentinel word that CkDirect's detection protocol lives on.
// CreateHandle rejects it on every backend, before the real backend's
// deposit could slice the source at a negative index. Callers can match
// it with errors.As.
type SubWordError struct {
	// What names the undersized geometry ("receive buffer").
	What string
	// Bytes is the offending size.
	Bytes int
}

func (e *SubWordError) Error() string {
	return fmt.Sprintf("ckdirect: %s of %d bytes cannot hold the 8-byte out-of-band sentinel word", e.What, e.Bytes)
}
