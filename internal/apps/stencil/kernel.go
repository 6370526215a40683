package stencil

import (
	"encoding/binary"
	"math"

	"repro/internal/apps"
)

// jacobi applies one 7-point update, reading ghost values straight from
// the face buffers (the no-copy arrangement both variants share), and
// returns the local residual sum |next - cur|.
//
// It walks z-lines. A line's four side neighbours are whole lines — of
// cur inside the block, of an arrived face across it, or the zero line
// at the Dirichlet boundary — and only the line's two ends read the z
// faces. Every cell still sums (v + w + e + s + n + dn + up) / 7 in that
// order, and the residual still accumulates cell by cell in x, y, z
// order, so next and the residual are bit-identical to the per-cell
// update SerialReference makes.
func (c *chare) jacobi() float64 {
	bx, by, bz := c.bx, c.by, c.bz
	plane := by * bz
	residual := 0.0
	for x := 0; x < bx; x++ {
		for y := 0; y < by; y++ {
			o := (x*by + y) * bz
			residual = line(c.next[o:o+bz], c.cur[o:o+bz],
				c.side(xm, x > 0, o-plane, y*bz),
				c.side(xp, x < bx-1, o+plane, y*bz),
				c.side(ym, y > 0, o-bz, x*bz),
				c.side(yp, y < by-1, o+bz, x*bz),
				c.zGhost(zm, x*by+y), c.zGhost(zp, x*by+y), residual)
		}
	}
	return residual
}

// side returns the z-line beside the current one across side d: cur's
// line at offset in when that line is inside the block, else the line at
// offset fo of the arrived face, else the zero line.
func (c *chare) side(d int, inside bool, in, fo int) []float64 {
	switch {
	case inside:
		return c.cur[in : in+c.bz]
	case c.neighbors[d]:
		return c.faceVals[d][fo : fo+c.bz]
	}
	return c.zero
}

// zGhost returns entry i of the arrived z face d, or 0 at the Dirichlet
// boundary.
func (c *chare) zGhost(d, i int) float64 {
	if !c.neighbors[d] {
		return 0
	}
	return c.faceVals[d][i]
}

// line updates one z-line into out from the line v, its side lines w, e,
// s, n and the ghosts dn below its first cell and up above its last. It
// adds each cell's |out - v| to res in z order and returns the sum. The
// ends are peeled, so the inner loop reads only slices.
func line(out, v, w, e, s, n []float64, dn, up, res float64) float64 {
	m := len(v)
	out, w, e, s, n = out[:m], w[:m], e[:m], s[:m], n[:m]
	if m == 1 {
		nv := (v[0] + w[0] + e[0] + s[0] + n[0] + dn + up) / 7
		out[0] = nv
		return res + math.Abs(nv-v[0])
	}
	nv := (v[0] + w[0] + e[0] + s[0] + n[0] + dn + v[1]) / 7
	out[0] = nv
	res += math.Abs(nv - v[0])
	// The interior cells 1..m-2, through slices of one length k so the
	// loop carries no bounds checks: mid[i] is v[i+1], lo and hi the
	// cells below and above it.
	k := m - 2
	mid, lo, hi := v[1:m-1], v[:k], v[2:][:k]
	o, w1, e1, s1, n1 := out[1:][:k], w[1:][:k], e[1:][:k], s[1:][:k], n[1:][:k]
	for i, vi := range mid {
		nv := (vi + w1[i] + e1[i] + s1[i] + n1[i] + lo[i] + hi[i]) / 7
		o[i] = nv
		res += math.Abs(nv - vi)
	}
	z := m - 1
	nv = (v[z] + w[z] + e[z] + s[z] + n[z] + v[z-1] + up) / 7
	out[z] = nv
	return res + math.Abs(nv-v[z])
}

// extractFace encodes this chare's boundary layer on side d into buf,
// laid out as the neighbour's faceVals[opposite(d)] reads it.
func (c *chare) extractFace(d int, buf []byte) {
	bx, by, bz := c.bx, c.by, c.bz
	plane := by * bz
	switch d {
	case xp, xm:
		// An x face is one contiguous plane of cur.
		o := 0
		if d == xp {
			o = (bx - 1) * plane
		}
		encodeF64s(buf, c.cur[o:o+plane])
	case yp, ym:
		y := 0
		if d == yp {
			y = by - 1
		}
		for x := 0; x < bx; x++ {
			o := (x*by + y) * bz
			encodeF64s(buf[x*bz*8:], c.cur[o:o+bz])
		}
	default:
		z := 0
		if d == zp {
			z = bz - 1
		}
		for i := 0; i < bx*by; i++ {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(c.cur[i*bz+z]))
		}
	}
}

// encodeF64s writes vals into buf as little-endian float64s.
func encodeF64s(buf []byte, vals []float64) {
	buf = buf[:len(vals)*8]
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
}

// decodeFace decodes an arrived face into dst, which is as long as the
// face has values.
func decodeFace(dst []float64, data []byte) {
	data = data[:len(dst)*8]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
}

// oracle caches SerialReference for the last shape a net run validated.
var oracle apps.Oracle[[4]int]

// reference is SerialReference through the per-shape cache; the slice
// is shared and read-only.
func reference(nx, ny, nz, iters int) []float64 {
	return oracle.Get([4]int{nx, ny, nz, iters}, func() []float64 {
		return SerialReference(nx, ny, nz, iters)
	})
}

// SerialReference runs the same Jacobi iteration on an undecomposed grid
// (zero Dirichlet boundary), for validating the distributed solvers.
func SerialReference(nx, ny, nz, iters int) []float64 {
	cur := make([]float64, nx*ny*nz)
	next := make([]float64, nx*ny*nz)
	at := func(g []float64, x, y, z int) float64 {
		if x < 0 || x >= nx || y < 0 || y >= ny || z < 0 || z >= nz {
			return 0
		}
		return g[(x*ny+y)*nz+z]
	}
	i := 0
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			for z := 0; z < nz; z++ {
				cur[i] = seedValue(x, y, z)
				i++
			}
		}
	}
	for it := 0; it < iters; it++ {
		i = 0
		for x := 0; x < nx; x++ {
			for y := 0; y < ny; y++ {
				for z := 0; z < nz; z++ {
					next[i] = (cur[i] + at(cur, x-1, y, z) + at(cur, x+1, y, z) +
						at(cur, x, y-1, z) + at(cur, x, y+1, z) +
						at(cur, x, y, z-1) + at(cur, x, y, z+1)) / 7
					i++
				}
			}
		}
		cur, next = next, cur
	}
	return cur
}
