// Package rng provides a small, fast, deterministic random number
// generator used for workload generation. Every consumer owns its own
// generator seeded explicitly, so simulations replay bit-identically; no
// global state is shared.
//
// The core generator is splitmix64 (Steele, Lea, Vigna), which is
// statistically strong enough for payload fuzzing and parameter jitter and
// has a trivially verifiable reference implementation.
package rng

// RNG is a splitmix64 generator. The zero value is a valid generator
// seeded with 0; prefer New for explicit seeding.
type RNG struct {
	state uint64
}

// New returns a generator with the given seed.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniformly distributed integer in [0, n). It panics if
// n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded values.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Float64 returns a uniformly distributed value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Fill fills buf with pseudorandom bytes.
func (r *RNG) Fill(buf []byte) {
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		v := r.Uint64()
		buf[i] = byte(v)
		buf[i+1] = byte(v >> 8)
		buf[i+2] = byte(v >> 16)
		buf[i+3] = byte(v >> 24)
		buf[i+4] = byte(v >> 32)
		buf[i+5] = byte(v >> 40)
		buf[i+6] = byte(v >> 48)
		buf[i+7] = byte(v >> 56)
	}
	if i < len(buf) {
		v := r.Uint64()
		for ; i < len(buf); i++ {
			buf[i] = byte(v)
			v >>= 8
		}
	}
}

// Split derives an independent generator from r, advancing r once. It is
// the supported way to hand sub-streams to parallel workload components
// without correlating them.
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xFFFFFFFF
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	w0 := t & mask
	k := t >> 32
	t = aHi*bLo + k
	w1 := t & mask
	w2 := t >> 32
	t = aLo*bHi + w1
	k = t >> 32
	hi = aHi*bHi + w2 + k
	lo = (t << 32) + w0
	return
}
