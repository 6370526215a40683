package machine

import (
	"fmt"
	"unsafe"
)

// Region is a block of PE-local memory that network hardware may address.
// Regions come in two payload modes:
//
//   - Real: a backing []byte exists; puts and message deliveries copy
//     actual bytes, so correctness (sentinel detection, halo contents,
//     matrix products) is exercised end-to-end.
//   - Virtual: no backing storage; only the size participates in the cost
//     model. Virtual regions let the harness run 4096-PE configurations
//     without allocating the aggregate buffer footprint of a real machine.
//
// Tests assert that small configurations produce identical virtual-time
// results under both modes, which is what justifies using Virtual mode for
// the large figure sweeps.
type Region struct {
	pe         *PE
	size       int
	buf        []byte
	registered bool
	// owned marks storage the region allocated itself (AllocRegion).
	// Only owned storage may be transparently migrated by Rebind: a
	// wrapped region aliases a caller-held slice, and the caller reads
	// that slice directly — moving the bytes out from under it would
	// silently decouple the two views.
	owned bool
	// aliased marks a caller-held slice (WrapRegion), which Hold may
	// not drop.
	aliased bool
}

// AllocRegion allocates a memory region of size bytes on PE pe. When
// virtual is true the region carries no backing bytes.
func (m *Machine) AllocRegion(pe int, size int, virtual bool) *Region {
	if pe < 0 || pe >= len(m.pes) {
		panic(fmt.Sprintf("machine: AllocRegion on invalid PE %d", pe))
	}
	if size < 0 {
		panic(fmt.Sprintf("machine: AllocRegion with negative size %d", size))
	}
	r := &Region{pe: m.pes[pe], size: size}
	if !virtual {
		r.buf = make([]byte, size)
		r.owned = true
	}
	return r
}

// WrapRegion adopts an existing byte slice as a region on PE pe. The
// caller retains access to the slice; the region aliases it. This is how
// application-owned buffers (a row in the middle of a matrix, a halo face)
// become network-addressable, mirroring RDMA memory registration of user
// buffers.
func (m *Machine) WrapRegion(pe int, buf []byte) *Region {
	if pe < 0 || pe >= len(m.pes) {
		panic(fmt.Sprintf("machine: WrapRegion on invalid PE %d", pe))
	}
	return &Region{pe: m.pes[pe], size: len(buf), buf: buf, aliased: true}
}

// Hold gives the region zeroed storage of its size (real true) or drops
// its storage, leaving the size only (real false). A registered region
// follows its element between processes this way: its bytes exist only
// in the process that runs the element. A region that aliases a
// caller's slice (WrapRegion) keeps it: its caller reads that slice, not
// Bytes, so dropping it would silently decouple the two views.
func (r *Region) Hold(real bool) error {
	switch {
	case real && r.buf == nil:
		r.buf = make([]byte, r.size)
		r.owned = true
	case !real && r.buf != nil:
		if r.aliased {
			return fmt.Errorf("machine: Hold drops a wrapped region (caller aliases the storage)")
		}
		r.buf = nil
		r.owned = false
	}
	return nil
}

// Rebind migrates the region onto different backing storage of the same
// size, copying the current contents across. This is how a registered
// receive buffer moves into a shared-memory arena after allocation: the
// application's held *Region keeps working — every Bytes()/Uint64At view
// resolves through r.buf — while the bytes themselves become addressable
// by a co-located peer process. Only regions that own their storage
// (AllocRegion) are eligible; a WrapRegion'd buffer stays put because
// its caller reads the wrapped slice directly.
func (r *Region) Rebind(buf []byte) error {
	if r.buf == nil {
		return fmt.Errorf("machine: Rebind of a virtual region")
	}
	if !r.owned {
		return fmt.Errorf("machine: Rebind of a wrapped region (caller aliases the storage)")
	}
	if len(buf) != r.size {
		return fmt.Errorf("machine: Rebind size %d, region is %d", len(buf), r.size)
	}
	copy(buf, r.buf)
	r.buf = buf
	r.owned = false
	return nil
}

// Rebindable reports whether Rebind may migrate this region's storage.
func (r *Region) Rebindable() bool { return r.owned && r.buf != nil }

// PE returns the processing element owning this region.
func (r *Region) PE() *PE { return r.pe }

// Size returns the region size in bytes.
func (r *Region) Size() int { return r.size }

// Virtual reports whether the region has no backing bytes.
func (r *Region) Virtual() bool { return r.buf == nil && r.size > 0 }

// Bytes returns the backing slice, or nil for virtual regions.
func (r *Region) Bytes() []byte { return r.buf }

// Registered reports whether the region has been registered with the
// (simulated) network hardware.
func (r *Region) Registered() bool { return r.registered }

// SetRegistered records registration state; network models call this when
// charging (or skipping, on a cache hit) registration cost.
func (r *Region) SetRegistered(v bool) { r.registered = v }

// Uint64At returns a pointer to the 8-byte word at byte offset off,
// suitable for atomic loads and stores — the real-execution backend's
// sentinel word. It fails for virtual regions, out-of-range offsets, and
// words not aligned to 8 bytes (64-bit atomics require natural alignment;
// Go's allocator 8-aligns every []byte whose length is a multiple of 8,
// so in practice this constrains off, not the buffer).
func (r *Region) Uint64At(off int) (*uint64, error) {
	if r.buf == nil {
		return nil, fmt.Errorf("machine: Uint64At on a virtual region")
	}
	if off < 0 || off+8 > len(r.buf) {
		return nil, fmt.Errorf("machine: Uint64At offset %d outside region of %d bytes", off, len(r.buf))
	}
	p := unsafe.Pointer(&r.buf[off])
	if uintptr(p)%8 != 0 {
		return nil, fmt.Errorf("machine: word at offset %d is not 8-byte aligned", off)
	}
	return (*uint64)(p), nil
}

// CopyTo copies min(len) bytes from r into dst. Copies involving a
// virtual endpoint move no bytes but are still legal: the cost model has
// already accounted for the transfer.
func (r *Region) CopyTo(dst *Region) {
	if r.buf == nil || dst.buf == nil {
		return
	}
	copy(dst.buf, r.buf)
}
