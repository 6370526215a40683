package stencil

import (
	"encoding/binary"
	"math"

	"repro/internal/apps"
)

// at indexes the chare-local field: x-major, then y, then z.
func (c *chare) at(x, y, z int) float64 {
	return c.cur[(x*c.by+y)*c.bz+z]
}

// ghost returns the neighbour value of cell (x,y,z) in direction d,
// reading across the block boundary from the arrived face buffer, or 0
// at the global (Dirichlet) boundary.
func (c *chare) ghost(d, x, y, z int) float64 {
	if !c.neighbors[d] {
		return 0
	}
	f := c.faceVals[d]
	switch d {
	case xp, xm:
		return f[y*c.bz+z]
	case yp, ym:
		return f[x*c.bz+z]
	default:
		return f[x*c.by+y]
	}
}

// jacobi applies one 7-point update, reading ghost values straight from
// the face buffers (the no-copy arrangement both variants share), and
// returns the local residual sum |next - cur|.
func (c *chare) jacobi() float64 {
	residual := 0.0
	i := 0
	for x := 0; x < c.bx; x++ {
		for y := 0; y < c.by; y++ {
			for z := 0; z < c.bz; z++ {
				v := c.cur[i]
				var w, e, s, n, dn, up float64
				if x > 0 {
					w = c.at(x-1, y, z)
				} else {
					w = c.ghost(xm, x, y, z)
				}
				if x < c.bx-1 {
					e = c.at(x+1, y, z)
				} else {
					e = c.ghost(xp, x, y, z)
				}
				if y > 0 {
					s = c.at(x, y-1, z)
				} else {
					s = c.ghost(ym, x, y, z)
				}
				if y < c.by-1 {
					n = c.at(x, y+1, z)
				} else {
					n = c.ghost(yp, x, y, z)
				}
				if z > 0 {
					dn = c.at(x, y, z-1)
				} else {
					dn = c.ghost(zm, x, y, z)
				}
				if z < c.bz-1 {
					up = c.at(x, y, z+1)
				} else {
					up = c.ghost(zp, x, y, z)
				}
				nv := (v + w + e + s + n + dn + up) / 7
				c.next[i] = nv
				residual += math.Abs(nv - v)
				i++
			}
		}
	}
	return residual
}

// extractFace encodes this chare's boundary layer on side d into buf.
func (c *chare) extractFace(d int, buf []byte) {
	put := func(i int, v float64) {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	switch d {
	case xp:
		for y := 0; y < c.by; y++ {
			for z := 0; z < c.bz; z++ {
				put(y*c.bz+z, c.at(c.bx-1, y, z))
			}
		}
	case xm:
		for y := 0; y < c.by; y++ {
			for z := 0; z < c.bz; z++ {
				put(y*c.bz+z, c.at(0, y, z))
			}
		}
	case yp:
		for x := 0; x < c.bx; x++ {
			for z := 0; z < c.bz; z++ {
				put(x*c.bz+z, c.at(x, c.by-1, z))
			}
		}
	case ym:
		for x := 0; x < c.bx; x++ {
			for z := 0; z < c.bz; z++ {
				put(x*c.bz+z, c.at(x, 0, z))
			}
		}
	case zp:
		for x := 0; x < c.bx; x++ {
			for y := 0; y < c.by; y++ {
				put(x*c.by+y, c.at(x, y, c.bz-1))
			}
		}
	case zm:
		for x := 0; x < c.bx; x++ {
			for y := 0; y < c.by; y++ {
				put(x*c.by+y, c.at(x, y, 0))
			}
		}
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
